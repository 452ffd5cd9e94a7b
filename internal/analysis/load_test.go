package analysis_test

import (
	"sort"
	"strings"
	"testing"

	"decentmon/internal/analysis"
)

// TestLoadTypechecksRealPackage proves the go list -export + gc-importer
// pipeline yields full type information for an in-repo package with
// dependencies.
func TestLoadTypechecksRealPackage(t *testing.T) {
	pkgs, err := analysis.Load(".", "decentmon/internal/dist")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Name != "dist" || pkg.Types == nil || pkg.Info == nil {
		t.Fatalf("incomplete package: %+v", pkg)
	}
	if obj := pkg.Types.Scope().Lookup("MaxSpace"); obj == nil {
		t.Errorf("dist.MaxSpace not found in loaded scope")
	}
	if len(pkg.Info.Uses) == 0 || len(pkg.Info.Defs) == 0 {
		t.Errorf("type info not populated: %d uses, %d defs", len(pkg.Info.Uses), len(pkg.Info.Defs))
	}
}

// TestLoadMultiplePatterns checks pattern expansion and deterministic
// diagnostics ordering through RunAnalyzers.
func TestLoadMultiplePatterns(t *testing.T) {
	pkgs, err := analysis.Load(".", "decentmon/internal/vclock", "decentmon/internal/boolfn")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var names []string
	for _, p := range pkgs {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "boolfn,vclock" {
		t.Fatalf("loaded %v, want boolfn and vclock", names)
	}
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "reports each package clause",
		Run: func(pass *analysis.Pass) error {
			pass.Reportf(pass.Files[0].Name.Pos(), "package %s", pass.Pkg.Name())
			return nil
		},
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{probe})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a := diags[i-1].Position(pkgs[0].Fset)
		b := diags[i].Position(pkgs[0].Fset)
		if a.Filename > b.Filename {
			t.Errorf("diagnostics not sorted: %s after %s", a.Filename, b.Filename)
		}
	}
}

func TestLoadBadPattern(t *testing.T) {
	if _, err := analysis.Load(".", "decentmon/internal/does-not-exist"); err == nil {
		t.Fatal("Load of a nonexistent package should fail")
	}
}
