// Package clockalias flags in-place mutation of vector-clock/cut slices
// that are aliased rather than owned.
//
// Source invariant: vclock.VC and dist.GlobalState are plain slices.
// Accessors such as (*PathMonitor).Cut, (*TraceSet).FinalCut, any LastCut
// accessor and the VC field of dist.Event hand out (or may hand out)
// storage shared with the engine's internal state; mutating such a slice in place — index
// assignment, Tick/Merge (which mutate their receiver, see
// internal/vclock/vclock.go), sort, or copy-into — corrupts causal history
// at a distance. The engine's convention is clone-before-mutate:
// vclock.Clone, vclock.Max, or append([]T(nil), s...). For an event's clock
// the distance includes other goroutines: every monitor of a session that
// knows a fed event holds the same *dist.Event (internal/core/messages.go), so
// e.VC[i] = x, e.VC.Merge(w) or e.VC.Tick(i) is a cross-monitor data race,
// not only an aliasing bug (the sharedevent analyzer covers the event's other
// fields).
//
// The analyzer taints, per function: results of Cut()/FinalCut() calls,
// VC-field selections, and clock-typed parameters (named types VC or
// GlobalState). Rebinding a tainted variable from Clone/Max/New/append/
// make or a composite literal clears the taint. Methods whose receiver is
// itself a clock type (the vclock primitives) are exempt — mutating the
// receiver is their contract.
//
// Second invariant, same convention: a *window* is a clock-typed view cut
// out of a larger raw slice — VC(arena[i:j]) — as in the box kernel's
// frontier arenas (internal/core/boxdp.go). Its owner may write through it
// (that is how a lift cut is completed in place), but the arena is reused by
// the next sweep, so a window stored somewhere that outlives the sweep — a
// composite literal, an append, a struct field — without Clone() hands out
// storage that will be overwritten. Those three stores are findings.
package clockalias

import (
	"go/ast"
	"go/types"

	"decentmon/internal/analysis"
)

// Analyzer is the clockalias analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "clockalias",
	Doc:  "flags in-place mutation (index assign, Tick/Merge, sort, copy-into) of vector-clock/cut slices obtained from accessors without an intervening Clone (clone-before-mutate invariant, internal/vclock + internal/dist)",
	Run:  run,
}

// freshCallees are functions/methods whose result is independently owned.
// Clock is the wire cursor's clock reader and clockOf/clockOrNil its
// width-checked forms (internal/core, restore path): they materialize fresh
// slices from the bytes, never aliases of live monitor state, so rebinding
// from them clears the taint like any other clone.
var freshCallees = map[string]bool{"Clone": true, "Max": true, "New": true, "append": true, "make": true, "Clock": true, "clockOf": true, "clockOrNil": true}

// borrowCallees are accessors whose result aliases internal state. LastCut
// names the shape of an accessor returning the most recent verdict cut
// without cloning; its fixture keeps it under the same borrow contract.
var borrowCallees = map[string]bool{"Cut": true, "FinalCut": true, "LastCut": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || clockReceiver(pass, fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// clockReceiver reports whether fd is a method on a clock type itself.
func clockReceiver(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	return ok && isClockType(tv.Type)
}

// isClockType reports whether t (or its pointee) is a named vector-clock or
// cut type: VC or GlobalState.
func isClockType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := n.Obj().Name()
	return name == "VC" || name == "GlobalState"
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	tainted := map[types.Object]string{} // var -> description of the borrow source
	windows := map[types.Object]bool{}   // vars bound to a window into a raw arena
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj != nil && isClockType(obj.Type()) {
					tainted[obj] = "parameter " + name.Name
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, n, tainted, windows)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					continue
				}
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					if src, bad := borrowed(pass, n.Values[i], tainted); bad {
						tainted[obj] = src
					}
					if isWindow(pass, n.Values[i], windows) {
						windows[obj] = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				reportStoredWindow(pass, elt, windows, "composite literal")
			}
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok {
				if src, bad := borrowed(pass, ix.X, tainted); bad {
					pass.Reportf(n.Pos(), "in-place element update of aliased clock/cut slice (%s); Clone() before mutating", src)
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, tainted, windows)
		}
		return true
	})
}

// checkAssign handles both taint propagation (ident = borrowed expr) and
// mutation detection (borrowedExpr[i] = v).
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, tainted map[types.Object]string, windows map[types.Object]bool) {
	// Mutation: index-assignment whose base is borrowed.
	for i, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if src, bad := borrowed(pass, ix.X, tainted); bad {
				pass.Reportf(lhs.Pos(), "in-place element write to aliased clock/cut slice (%s); Clone() before mutating", src)
			}
		}
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && isField(pass, sel) && len(as.Lhs) == len(as.Rhs) {
			reportStoredWindow(pass, as.Rhs[i], windows, "field")
		}
	}
	// Taint transfer: only simple 1:1 or n:n ident bindings are tracked.
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if src, bad := borrowed(pass, as.Rhs[i], tainted); bad {
			tainted[obj] = src
		} else {
			delete(tainted, obj) // rebound to owned storage
		}
		if isWindow(pass, as.Rhs[i], windows) {
			windows[obj] = true
		} else {
			delete(windows, obj)
		}
	}
}

// isWindow reports whether e is a clock-typed view into a larger raw slice:
// a conversion of a slice expression to a clock type, or a variable bound to
// one.
func isWindow(pass *analysis.Pass, e ast.Expr, windows map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return windows[pass.TypesInfo.Uses[e]]
	case *ast.CallExpr:
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && isClockType(tv.Type) && len(e.Args) == 1 {
			_, sliced := ast.Unparen(e.Args[0]).(*ast.SliceExpr)
			return sliced
		}
	}
	return false
}

func reportStoredWindow(pass *analysis.Pass, e ast.Expr, windows map[types.Object]bool, where string) {
	if isWindow(pass, e, windows) {
		pass.Reportf(e.Pos(), "%s retains a window into a reusable arena; Clone() what outlives the sweep", where)
	}
}

// checkCall flags mutating calls on borrowed receivers/arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, tainted map[types.Object]string, windows map[types.Object]bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "Tick" || name == "Merge" {
			if src, bad := borrowed(pass, fun.X, tainted); bad {
				pass.Reportf(call.Pos(), "%s mutates its receiver, which is an aliased clock/cut slice (%s); Clone() first", name, src)
			}
		}
		// sort.Ints / sort.Slice and friends reorder in place.
		if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "sort" && len(call.Args) > 0 {
			if src, bad := borrowed(pass, call.Args[0], tainted); bad {
				pass.Reportf(call.Pos(), "sort.%s reorders an aliased clock/cut slice in place (%s); Clone() first", name, src)
			}
		}
	case *ast.Ident:
		if fun.Name == "copy" && len(call.Args) == 2 {
			if src, bad := borrowed(pass, call.Args[0], tainted); bad {
				pass.Reportf(call.Pos(), "copy into aliased clock/cut slice (%s); Clone() first", src)
			}
		}
		if fun.Name == "append" && len(call.Args) > 1 && !call.Ellipsis.IsValid() {
			for _, arg := range call.Args[1:] {
				reportStoredWindow(pass, arg, windows, "append")
			}
		}
	}
}

// borrowed reports whether e evaluates to aliased clock/cut storage, and
// describes the borrow source. It recognizes tainted variables, VC-field
// selections, and Cut()/FinalCut() call results; Clone/Max/New/append/make
// and composite literals are owned.
func borrowed(pass *analysis.Pass, e ast.Expr, tainted map[types.Object]string) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if src, ok := tainted[obj]; ok {
			return src, true
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "VC" && isField(pass, e) {
			return "VC field: an event and its clock are shared by every monitor that holds the event", true
		}
	case *ast.CallExpr:
		if s, ok := e.Fun.(*ast.SelectorExpr); ok && borrowCallees[s.Sel.Name] {
			return s.Sel.Name + "() accessor", true
		}
		// A type conversion aliases its operand's storage for slice types.
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return borrowed(pass, e.Args[0], tainted)
		}
	case *ast.IndexExpr:
		// Element of a borrowed slice-of-clocks is itself borrowed.
		return borrowed(pass, e.X, tainted)
	}
	return "", false
}

// isField reports whether sel selects a struct field (not a package member
// or method).
func isField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}
