//go:build ignore

// docscheck is the documentation lint: it walks every Markdown file in the
// repository and verifies that relative links point at files that exist, so
// README/ARCHITECTURE/PERFORMANCE cross-references cannot rot silently.
// External (http/https/mailto) links are not fetched — CI must not depend
// on the network — and pure intra-page anchors are skipped. It also keeps
// ARCHITECTURE.md's package ledger — package, first sentence of its doc
// comment, non-test Go lines — equal to what the tree yields, so "least code"
// is a number every change moves in plain sight.
//
// Usage: go run scripts/docscheck.go [-write] [root]
//
// Exits nonzero listing every broken link and a stale ledger; -write rewrites
// the ledger instead. Stdlib only, like the rest of the repo's tooling.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// The ledger sits in ARCHITECTURE.md between these two lines.
const ledgerBegin, ledgerEnd = "<!-- ledger:begin (generated: go run scripts/docscheck.go -write) -->\n", "<!-- ledger:end -->"

// ledger renders the table from `go list` (which skips tests, testdata and
// the nested bench module) plus the build-ignored tools under scripts/.
func ledger(root string) (string, error) {
	cmd := exec.Command("go", "list", "-f", "{{.Dir}}\t{{.ImportPath}}\t{{.Doc}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list: %w", err)
	}
	scripts, _ := filepath.Glob(filepath.Join(root, "scripts", "*.go"))
	out = fmt.Appendf(out, "\tscripts/\tbuild-ignored tools run with `go run`: docscheck, perfgate.\t%s\n", strings.Join(scripts, " "))
	var b strings.Builder
	b.WriteString("| package | purpose | non-test Go lines |\n|---|---|---:|\n")
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		lines := 0
		for _, name := range strings.Fields(f[3]) {
			data, err := os.ReadFile(filepath.Join(f[0], name))
			if err != nil {
				return "", err
			}
			lines += bytes.Count(data, []byte("\n"))
		}
		total += lines
		fmt.Fprintf(&b, "| `%s` | %s | %d |\n", f[1], strings.ReplaceAll(f[2], "|", `\|`), lines)
	}
	fmt.Fprintf(&b, "| **total** | | **%d** |\n", total)
	return b.String(), nil
}

// checkLedger compares ARCHITECTURE.md's ledger with the tree, or rewrites it.
func checkLedger(root string, write bool) error {
	path := filepath.Join(root, "ARCHITECTURE.md")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc := string(data)
	i, j := strings.Index(doc, ledgerBegin), strings.Index(doc, ledgerEnd)
	if i < 0 || j < i {
		return fmt.Errorf("%s: package ledger markers not found", path)
	}
	i += len(ledgerBegin)
	want, err := ledger(root)
	if err != nil || doc[i:j] == want {
		return err
	}
	if !write {
		return fmt.Errorf("%s: package ledger is stale; run go run scripts/docscheck.go -write", path)
	}
	return os.WriteFile(path, []byte(doc[:i]+want+doc[j:]), 0o644)
}

// linkRe matches inline Markdown links and images: [text](target) — the
// target up to the first ')', '#' fragment split off later.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

func main() {
	write := flag.Bool("write", false, "rewrite ARCHITECTURE.md's package ledger instead of checking it")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	var broken []string
	if err := checkLedger(root, *write); err != nil {
		broken = append(broken, err.Error())
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "bin" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			ref := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(ref); err != nil {
				broken = append(broken, fmt.Sprintf("%s: broken link %q (%s)", path, m[1], ref))
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if len(broken) > 0 {
		for _, b := range broken {
			fmt.Fprintln(os.Stderr, b)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(broken))
		os.Exit(1)
	}
	fmt.Println("docscheck: all relative Markdown links resolve and the package ledger is current")
}
