package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat. The
// command name (field 2) is parenthesised and may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// parseHostCPU extracts, from the text of /proc/stat, the machine's cumulative
// CPU ticks: all of them, and those the hypervisor gave to someone else.
func parseHostCPU(stat string) (total, steal int64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; the rest repeat user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// hostCPU reads parseHostCPU's counters; zeros when /proc/stat is unreadable.
func hostCPU() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	total, steal, _ = parseHostCPU(string(b))
	return total, steal
}

// parseStatusKB extracts a "Vm*:  <n> kB" field from the text of
// /proc/<pid>/status.
func parseStatusKB(status, field string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", field, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", field)
}

// procCPU is the CPU time of another process. The pid of this process reads
// getrusage instead: it has microsecond resolution where /proc has 10 ms.
func procCPU(pid int) (time.Duration, error) {
	if pid == os.Getpid() {
		return selfCPU()
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procPeakRSSMB is the resident-set high-water mark (VmHWM) of a process.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseMetrics reads Prometheus text exposition into name → value. Labelled
// samples keep their label text in the name (`x_bucket{le="1"}`).
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// scrapeMetrics fetches and parses a dlmond /metrics page.
func scrapeMetrics(addr string) (map[string]float64, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// rssSampler polls a process's resident set size while a window is measured.
// A Go process's high-water mark is set by its single worst GC overshoot
// (dlmond: 18 to 30 MB over eight runs whose samples otherwise sit at 14 MB)
// and repeats poorly, so the sampler reports the level the process stayed
// under for nine tenths of the window instead.
type rssSampler struct {
	pid     int
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
	// total0 and steal0 are the host's CPU counters when sampling began.
	total0, steal0 int64
}

const rssPoll = 20 * time.Millisecond

func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	s.total0, s.steal0 = hostCPU()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid)); err == nil {
				if kb, err := parseStatusKB(string(b), "VmRSS"); err == nil {
					s.samples = append(s.samples, float64(kb)/1024)
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the 90th percentile of its samples,
// and the share of the machine's CPU time the hypervisor took away while it
// ran: a run with more than a few percent stolen measured the neighbours.
func (s *rssSampler) finish() (rssMB, stolen float64) {
	close(s.stop)
	<-s.done
	total, steal := hostCPU()
	return percentile(s.samples, 90), ratio(float64(steal-s.steal0), float64(total-s.total0))
}
