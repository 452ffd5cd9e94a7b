package decentmon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// censusGolden pins the repository's settable values, one a line.
const censusGolden = "testdata/census.golden"

// censusStructs are the configuration structs whose exported fields a caller
// sets: the engine's, the daemon's and the experiment sweep's.
var censusStructs = []struct{ dir, typ string }{
	{"internal/core", "SessionConfig"},
	{"internal/core", "RunConfig"},
	{"internal/server", "Config"},
	{"internal/experiments", "Config"},
}

// TestConfigCensus lists every independently settable value — the exported
// fields of the configuration structs above, the facade's options (every
// function returning an Option or a CompileOption) and every flag of every
// command — and compares the list with the one pinned in
// testdata/census.golden. A change that adds or removes a knob has to change
// that file too, so its diff is the change's knob count.
func TestConfigCensus(t *testing.T) {
	got := census(t)
	data, err := os.ReadFile(censusGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	added, removed := setDiff(got, want), setDiff(want, got)
	if len(added)+len(removed) > 0 {
		t.Errorf("the settable values moved: %d added %v, %d removed %v; pin the new list in %s:\n%s",
			len(added), added, len(removed), removed, censusGolden, strings.Join(got, "\n"))
	}
	t.Logf("%d settable values", len(got))
}

// setDiff returns the members of a missing from b.
func setDiff(a, b []string) []string {
	var out []string
	for _, s := range a {
		if !slices.Contains(b, s) {
			out = append(out, s)
		}
	}
	return out
}

// census reads the settable values from the source, sorted.
func census(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, c := range censusStructs {
		fields := structFields(t, c.dir, c.typ)
		if len(fields) == 0 {
			t.Fatalf("%s: no struct %s", c.dir, c.typ)
		}
		for _, f := range fields {
			out = append(out, filepath.Base(c.dir)+"."+c.typ+"."+f)
		}
	}
	for _, f := range parseDir(t, ".") {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fd.Type.Results.List[0].Type.(*ast.Ident); ok && (id.Name == "Option" || id.Name == "CompileOption") {
				out = append(out, "decentmon."+fd.Name.Name)
			}
		}
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		for _, name := range flagNames(parseDir(t, dir)) {
			out = append(out, dir+" -"+name)
		}
	}
	slices.Sort(out)
	return out
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// structFields returns the exported field names of struct typ declared in dir.
func structFields(t *testing.T, dir, typ string) []string {
	var names []string
	for _, f := range parseDir(t, dir) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
			return false
		})
	}
	return names
}

// flagDefiners are the flag package's definers; the value is the position of
// the flag's name among the call's arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// flagNames returns the names of the flags a command's files define, on the
// flag package's command line or on a FlagSet they create.
func flagNames(files []*ast.File) []string {
	sets := map[string]bool{"flag": true}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isCall(as.Rhs[0], "flag", "NewFlagSet") {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				sets[id.Name] = true
			}
			return true
		})
	}
	var names []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			at, definer := flagDefiners[sel.Sel.Name]
			if !ok || !definer || !sets[recv.Name] || len(call.Args) <= at {
				return true
			}
			if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names = append(names, name)
				}
			}
			return true
		})
	}
	return names
}

// isCall reports whether e calls pkg.fn.
func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == fn
}
