package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"decentmon/internal/server"
)

var selfPid = os.Getpid()

// daemon is a running dlmond, however it was started.
type daemon interface {
	rpcAddr() string
	metricsAddr() string
	// pid is the process whose CPU and memory the server's work lands in.
	pid() int
	// stateDir is the -state directory ("" when not durable).
	stateDir() string
	// stop terminates the daemon and removes its state directory. It is
	// safe to call more than once.
	stop() error
}

// buildDir is where binaries, build caches and dlmond state live: inside
// the checkout, ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildDlmond compiles cmd/dlmond from the checkout's source.
func buildDlmond(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(buildDir(root), "dlmond")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "decentmon/cmd/dlmond")
	cmd.Dir = filepath.Join(root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dlmond: %w\n%s", err, out)
	}
	return bin, nil
}

// dlmondProc is dlmond run as a subprocess, so that the generator's heap and
// GC stay out of the server's numbers.
type dlmondProc struct {
	cmd      *exec.Cmd
	rpc      string
	metrics  string
	state    string
	stderr   bytes.Buffer  // read only after exited is closed
	ready    chan struct{} // closed once start-up stops reading stdout lines
	exited   chan struct{} // closed once cmd.Wait has returned
	waitErr  error
	stopOnce sync.Once
	stopErr  error
}

// startupTimeout bounds the wait for dlmond to print its addresses.
const startupTimeout = 10 * time.Second

// spawnDlmond starts bin on ephemeral ports and waits for it to announce its
// addresses. A daemon that exits early or stays silent fails the run with
// its stderr attached.
func spawnDlmond(bin, root string, durable bool) (*dlmondProc, error) {
	d := &dlmondProc{ready: make(chan struct{}), exited: make(chan struct{})}
	startupOver := sync.OnceFunc(func() { close(d.ready) })
	defer startupOver()
	args := []string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}
	if durable {
		dir, err := os.MkdirTemp(buildDir(root), "state-")
		if err != nil {
			return nil, err
		}
		d.state = dir
		args = append(args, "-state", dir)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive a bench that is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		d.removeState()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		d.removeState()
		return nil, fmt.Errorf("starting dlmond: %w", err)
	}
	lines := make(chan string)
	go func() {
		// Keep draining stdout for the daemon's whole life so that it never
		// blocks on a full pipe; Wait runs only after the pipe is drained.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-d.ready: // start-up is over; discard
			}
		}
		close(lines)
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(startupTimeout)
	for d.rpc == "" || d.metrics == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				<-d.exited
				d.removeState()
				return nil, fmt.Errorf("dlmond exited before announcing its addresses (%v); stderr:\n%s", d.waitErr, d.stderr.String())
			}
			parseAnnouncement(line, &d.rpc, &d.metrics)
		case <-deadline:
			startupOver() // or the drain goroutine, and so stop, would block
			d.stop()
			return nil, fmt.Errorf("dlmond announced no address within %s; stderr:\n%s", startupTimeout, d.stderr.String())
		}
	}
	return d, nil
}

// parseAnnouncement picks the addresses out of dlmond's start-up lines.
func parseAnnouncement(line string, rpc, metrics *string) {
	if rest, ok := strings.CutPrefix(line, "dlmond: rpc on "); ok {
		*rpc = strings.TrimSpace(rest)
	}
	if rest, ok := strings.CutPrefix(line, "dlmond: metrics on http://"); ok {
		*metrics = strings.TrimSuffix(strings.TrimSpace(rest), "/metrics")
	}
}

func (d *dlmondProc) rpcAddr() string     { return d.rpc }
func (d *dlmondProc) metricsAddr() string { return d.metrics }
func (d *dlmondProc) pid() int            { return d.cmd.Process.Pid }
func (d *dlmondProc) stateDir() string    { return d.state }

func (d *dlmondProc) removeState() {
	if d.state != "" {
		os.RemoveAll(d.state)
	}
}

// termGrace is how long stop waits after SIGTERM before it kills.
const termGrace = 5 * time.Second

func (d *dlmondProc) stop() error {
	d.stopOnce.Do(func() {
		defer d.removeState()
		select {
		case <-d.exited:
			d.stopErr = fmt.Errorf("dlmond exited on its own (%v); stderr:\n%s", d.waitErr, d.stderr.String())
			return
		default:
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(termGrace):
			d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = fmt.Errorf("dlmond ignored SIGTERM for %s and was killed", termGrace)
		}
	})
	return d.stopErr
}

// localDaemon is dlmond inside this process. Only -smoke and the unit tests
// use it: it needs no build, but its numbers include the generator's.
type localDaemon struct {
	s     *server.Server
	state string
}

func startLocalDaemon(root string, durable bool) (*localDaemon, error) {
	d := &localDaemon{}
	cfg := server.Config{}
	if durable {
		if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(buildDir(root), "state-")
		if err != nil {
			return nil, err
		}
		d.state, cfg.StateDir = dir, dir
	}
	s, err := server.New(cfg)
	if err != nil {
		os.RemoveAll(d.state)
		return nil, err
	}
	d.s = s
	return d, nil
}

func (d *localDaemon) rpcAddr() string     { return d.s.Addr() }
func (d *localDaemon) metricsAddr() string { return d.s.MetricsAddr() }
func (d *localDaemon) pid() int            { return selfPid }
func (d *localDaemon) stateDir() string    { return d.state }

func (d *localDaemon) stop() error {
	err := d.s.Shutdown()
	if d.state != "" {
		os.RemoveAll(d.state)
	}
	return err
}
