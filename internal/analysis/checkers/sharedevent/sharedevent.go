// Package sharedevent flags writes through a *dist.Event outside the package
// that builds events.
//
// Source invariant: one fed event is one *dist.Event for the whole session.
// The feeder hands the pointer to its process's monitor, and every message
// that carries the event to another monitor of the same process carries that
// same pointer (internal/core/messages.go: a sent event is immutable from that
// moment, for every side and for good). So once an event has been fed, n
// monitor goroutines, the snapshot coordinator and the caller all read one
// struct, and a write through any pointer to it is a cross-goroutine data
// race — not the local slip it was while each monitor decoded a private copy.
//
// The rule: outside internal/dist, whose constructors and decoders produce
// events before anyone else can see them (Stamper, Generate, DecodeEventInto),
// an assignment or increment whose target is a field reached through a
// *dist.Event — e.State = s, evs[i].SN++, *e = other — is reported, unless the
// pointer is a local variable bound in the same function to a fresh event
// (&dist.Event{…} or new(dist.Event)) and never rebound: that event is still
// private to its builder. Writes into the event's clock (e.VC[i] = x,
// e.VC.Merge(…)) are clockalias findings already and are left to it. A
// dist.Event held by value is a private copy; writing it is fine, which is
// also the way to derive one event from another: c := *e; c.SN = 9.
package sharedevent

import (
	"go/ast"
	"go/types"
	"strings"

	"decentmon/internal/analysis"
)

// Analyzer is the sharedevent analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "sharedevent",
	Doc:  "flags field writes through a *dist.Event outside internal/dist: a fed event is shared by every monitor goroutine of its session, so a write through it is a cross-monitor data race (ownership contract, internal/core/messages.go)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Path, "internal/dist") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkFunc reports the event writes of one top-level function body, closures
// included: a variable a closure writes through is judged by all its bindings
// in the enclosing function.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	private := privateEvents(pass, body)
	report := func(target ast.Expr) {
		var base ast.Expr
		switch t := ast.Unparen(target).(type) {
		case *ast.SelectorExpr:
			if s, ok := pass.TypesInfo.Selections[t]; !ok || s.Kind() != types.FieldVal {
				return
			}
			base = t.X
		case *ast.StarExpr:
			base = t.X
		default:
			return
		}
		if !isEventPointer(pass.TypesInfo.TypeOf(base)) {
			return
		}
		if id, ok := ast.Unparen(base).(*ast.Ident); ok && private[pass.TypesInfo.Uses[id]] {
			return
		}
		pass.Reportf(target.Pos(), "write through a *dist.Event: a fed event is shared by every monitor of its session, so this is a cross-goroutine race; build a new event (c := *e; c.F = …) instead")
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(n.X)
		}
		return true
	})
}

// privateEvents returns the local variables of body that only ever hold an
// event allocated right there: declared in body and bound, every time, to
// &dist.Event{…} or new(dist.Event).
func privateEvents(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	private := map[types.Object]bool{}
	bind := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			if obj = pass.TypesInfo.Uses[id]; obj == nil || !private[obj] {
				return // rebinding something not declared private here
			}
		}
		if !isEventPointer(obj.Type()) {
			return
		}
		if fresh(rhs) {
			private[obj] = true
		} else {
			delete(private, obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					bind(name, n.Values[i])
				}
			}
		}
		return true
	})
	return private
}

// fresh reports whether e allocates a new value: &T{…} or new(T).
func fresh(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
		return lit
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// isEventPointer reports whether t is *dist.Event.
func isEventPointer(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "Event" && n.Obj().Pkg() != nil && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/dist")
}
