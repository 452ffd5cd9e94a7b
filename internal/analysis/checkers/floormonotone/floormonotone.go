// Package floormonotone flags writes to need-floor / minimal-cut fields
// that bypass the monotone-advance helpers.
//
// Source invariant: the knowledge-GC safety argument in
// internal/core/floors.go rests on need-floors only ever advancing
// pointwise: curFloor is recomputed whole by needFloor() (a pointwise min
// over monotone inputs) and published as it is, and a clock that merges
// announcements does so with vclock.Merge (a pointwise max). A raw element
// write (floor[i] = x) or a Tick can move a floor backward or skip ahead,
// licensing the GC to discard knowledge a peer still needs. (Of what peers
// report, the engine keeps single components — floors.peerNeed, floors.sentTo
// — and advances each with max; those are integers, not floors, and their
// one-line updates sit beside this invariant's statement in floors.go.)
//
// Allowed writes to a floor-named field (name matching floor/minCut):
// whole-value assignment from needFloor()/New/Clone/Max/Merge or from
// another floor field, or nil. The snapshot-restore path (clockOf and
// clockOrNil, its width-checked clock readers) is also blessed: a restored floor was
// blessed when captured, and the restore validates the whole blob before
// any handler can observe it. Everything else — element writes, Tick,
// copy-into — is flagged.
package floormonotone

import (
	"go/ast"
	"go/types"
	"regexp"

	"decentmon/internal/analysis"
)

// Analyzer is the floormonotone analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "floormonotone",
	Doc:  "flags assignments to need-floor/minimal-cut fields not guarded by a pointwise max/min helper (knowledge-GC safety argument, internal/core/monitor.go)",
	Run:  run,
}

// floorField matches struct-field names that carry GC floors or minimal
// cuts.
var floorField = regexp.MustCompile(`(?i)floor|mincut`)

// blessedCallees produce values that are valid floors by construction.
// clockOf and clockOrNil are the snapshot restore path's clock readers: floors
// they yield were blessed when the snapshot was captured (restore-path
// exemption).
var blessedCallees = map[string]bool{"needFloor": true, "New": true, "Clone": true, "Max": true, "Merge": true, "make": true, "clockOf": true, "clockOrNil": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.IncDecStmt:
				if root := floorRoot(pass, n.X); root != "" {
					pass.Reportf(n.Pos(), "pointwise update of floor field %s bypasses the monotone-advance helpers; use Merge (pointwise max)", root)
				}
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		root := floorRoot(pass, lhs)
		if root == "" {
			continue
		}
		// Element write: the assigned location is an integer component of
		// the clock, never a valid way to advance a floor.
		if tv, ok := pass.TypesInfo.Types[lhs]; ok && isIntType(tv.Type) {
			pass.Reportf(lhs.Pos(), "pointwise write to floor field %s bypasses the monotone-advance helpers; use Merge (pointwise max)", root)
			continue
		}
		// Whole-value assignment: the source must be blessed.
		if i < len(as.Rhs) && !blessedFloorSource(pass, as.Rhs[i]) {
			pass.Reportf(lhs.Pos(), "assignment to floor field %s from an unblessed source; floors may only come from needFloor()/New/Clone/Max or another floor field", root)
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Tick" {
			if root := floorRoot(pass, fun.X); root != "" {
				pass.Reportf(call.Pos(), "Tick on floor field %s violates floor monotonicity; floors advance only via Merge", root)
			}
		}
	case *ast.Ident:
		if fun.Name == "copy" && len(call.Args) == 2 {
			if root := floorRoot(pass, call.Args[0]); root != "" {
				pass.Reportf(call.Pos(), "copy into floor field %s bypasses the monotone-advance helpers; use Merge", root)
			}
		}
	}
}

// floorRoot strips index/paren layers off e and returns the name of the
// floor-named struct field at its base, or "" if there is none.
func floorRoot(pass *analysis.Pass, e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Fields only: helpers like needFloor legitimately build local
			// floor values element-by-element before publishing them.
			if floorField.MatchString(x.Sel.Name) && isFloorField(pass, x) {
				return x.Sel.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// blessedFloorSource reports whether rhs is a valid floor value: a call to
// one of the blessed constructors, another floor field, or nil.
func blessedFloorSource(pass *analysis.Pass, rhs ast.Expr) bool {
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		switch fun := rhs.Fun.(type) {
		case *ast.SelectorExpr:
			if blessedCallees[fun.Sel.Name] {
				return true
			}
			// x.Clone() etc. handled above; m.needFloor() likewise.
		case *ast.Ident:
			if blessedCallees[fun.Name] {
				return true
			}
		}
		return false
	case *ast.Ident:
		return rhs.Name == "nil" || floorField.MatchString(rhs.Name)
	case *ast.CompositeLit:
		return true // fresh zero-valued container
	default:
		return floorRoot(pass, rhs) != ""
	}
}

func isFloorField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
