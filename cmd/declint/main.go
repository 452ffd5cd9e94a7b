// Command declint is the project's static-analysis multichecker: it runs
// the declint analyzer suite (internal/analysis/checkers) over Go packages
// and, by default, bundles the toolchain's copylocks and lostcancel vet
// passes alongside it.
//
// Two modes:
//
//	declint [flags] [packages]      # local multichecker (default ./...)
//	go vet -vettool=$(which declint) ./...   # unit-checker protocol
//
// In vettool mode the go command drives declint once per package with a
// .cfg file (file list + export-data map); diagnostics go to stderr and a
// nonzero exit fails `go vet`, which is how CI enforces the suite.
//
// The x/tools passes nilness and unusedwrite named by the roadmap are
// SSA-based and unavailable without the golang.org/x/tools dependency,
// which this repo deliberately does not take; copylocks and lostcancel are
// bundled via `go vet` itself, and the rest of the suite is implemented
// natively in internal/analysis.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"decentmon/internal/analysis"
	"decentmon/internal/analysis/checkers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches between the -V=full probe, vettool mode (trailing .cfg
// argument, per the go vet unit-checker protocol), and local mode.
func run(args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		switch a {
		case "-V=full", "-V":
			// The go command hashes this line into its action cache key and
			// requires a buildID= suffix: hash the binary itself so a
			// rebuilt declint invalidates cached vet results.
			fmt.Fprintf(stdout, "declint version devel buildID=%s\n", selfBuildID())
			return 0
		case "-flags":
			// go vet probes the tool for the flags it may forward; declint
			// takes none in vettool mode.
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		return runVettool(args[n-1], stderr)
	}
	return runLocal(args, stdout, stderr)
}

func runLocal(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("declint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit diagnostics as JSON on stdout")
		docs    = fs.Bool("doc", false, "print each analyzer's rule and exit")
		govet   = fs.Bool("govet", true, "also run `go vet -copylocks -lostcancel` over the same packages")
		dir     = fs.String("dir", ".", "directory to resolve package patterns from")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: declint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range checkers.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *docs {
		for _, a := range checkers.All() {
			fmt.Fprintf(stdout, "%s: %s\n\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, checkers.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	status := 0
	if len(diags) > 0 {
		status = 1
	}
	if *jsonOut {
		printJSON(stdout, pkgs, diags)
	} else {
		for _, d := range diags {
			fmt.Fprintln(stderr, d.Text(pkgs[0].Fset))
		}
	}
	if *govet {
		if code := runGoVet(*dir, patterns, stderr); code != 0 && status == 0 {
			status = code
		}
	}
	return status
}

// selfBuildID hashes the running executable, standing in for a toolchain
// build ID.
func selfBuildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func printJSON(stdout io.Writer, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	type jsonDiag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		p := d.Position(pkgs[0].Fset)
		out = append(out, jsonDiag{File: p.Filename, Line: p.Line, Col: p.Column, Analyzer: d.Analyzer, Message: d.Message})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// runGoVet bundles the two toolchain passes the suite depends on that are
// not reimplemented here. Explicitly enabling them disables vet's other
// analyzers for this invocation.
func runGoVet(dir string, patterns []string, stderr io.Writer) int {
	args := append([]string{"vet", "-copylocks", "-lostcancel"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return 1
	}
	return 0
}
