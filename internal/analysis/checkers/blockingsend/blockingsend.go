// Package blockingsend flags channel operations inside loop bodies, or under
// a held mutex, that are not wrapped in a select carrying an escape case.
//
// Source invariant: the engine guarantees Close()/ctx cancellation never
// wedges a monitor or transport loop — every potentially blocking send or
// receive inside internal/core (monitor run loop, feed hand-off) and
// internal/transport (chanNet/tcp read+deliver loops) selects on a
// stop/ctx.Done() channel, or on a channel that shutdown closes (see
// internal/transport/chan.go drain and internal/core/monitor.go run, whose
// feed queue the session closes on cancellation). A bare `ch <- v` or `<-ch`
// in a loop can block forever once the peer is gone, wedging shutdown.
//
// The same holds between a mutex's Lock and its Unlock (or to the end of the
// function under a deferred Unlock), loop or no loop: whoever blocks there
// stalls every other taker of the lock with it — internal/transport/chan.go's
// put sends into an inbox under the endpoint's mutex, and may only because its
// select has a default; the relay's blocking send happens outside the lock,
// beside stop.
//
// An escape case is a `default` clause or a receive from a channel whose
// name suggests lifecycle (stop/quit/done/exit/cancel/abort/close) or that
// is produced by a Done() call (context.Context). Receives via
// range-over-channel are exempt: closing the channel unblocks them, which
// is itself a valid shutdown path. Its explicit form is an escape case too: a
// receive written `v, ok := <-ch` whose `if !ok { … }` branch leaves the loop,
// by a return or by a break to the label of a loop around the select. A `!ok`
// branch that continues, or that breaks out of the select alone, does not.
package blockingsend

import (
	"go/ast"
	"go/token"
	"regexp"

	"decentmon/internal/analysis"
)

// Analyzer is the blockingsend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "blockingsend",
	Doc:  "flags channel sends/receives in loop bodies or under a held mutex not guarded by a select with a stop/ctx escape case (Close-never-wedges invariant, internal/core + internal/transport)",
	Run:  run,
}

// escapeChan matches channel identifiers conventionally used to unblock
// shutdown.
var escapeChan = regexp.MustCompile(`(?i)stop|quit|done|exit|cancel|abort|close`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		guarded := map[ast.Node]bool{}
		var outer []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				outer = outer[:len(outer)-1]
				return true
			}
			outer = append(outer, n)
			sel, ok := n.(*ast.SelectStmt)
			if !ok || !hasEscape(sel, outer) {
				return true
			}
			for _, cl := range sel.Body.List {
				if op := commOp(cl.(*ast.CommClause).Comm); op != nil {
					guarded[op] = true
				}
			}
			return true
		})
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkHeld(pass, n.Body.List, guarded, false)
				}
			case *ast.FuncLit:
				checkHeld(pass, n.Body.List, guarded, false)
			case *ast.SendStmt:
				if !guarded[n] && inLoop(stack[:len(stack)-1]) {
					guarded[n] = true // reported once
					pass.Reportf(n.Arrow, "blocking send in a loop outside a select with a stop/ctx escape case; Close() can wedge here")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !guarded[n] && inLoop(stack[:len(stack)-1]) {
					guarded[n] = true
					pass.Reportf(n.OpPos, "blocking receive in a loop outside a select with a stop/ctx escape case; Close() can wedge here")
				}
			}
			return true
		})
	}
	return nil
}

// checkHeld walks one statement list in order, tracking whether a mutex is
// held: from an x.Lock() statement to the x.Unlock() statement of the same
// list, or to the end of the function when the Unlock is deferred. It reports
// the unguarded channel operations in between. The tracking is lexical: a
// nested block starts with its parent's state and what it locks or unlocks
// stays its own (the early `mu.Unlock(); return` branch), and function
// literals are functions of their own.
func checkHeld(pass *analysis.Pass, list []ast.Stmt, guarded map[ast.Node]bool, held bool) {
	for _, st := range list {
		if call, ok := lockCall(st); ok {
			held = call == "Lock" || call == "RLock"
			continue
		}
		ast.Inspect(st, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.BlockStmt:
				checkHeld(pass, n.List, guarded, held)
				return false
			case *ast.CaseClause:
				checkHeld(pass, n.Body, guarded, held)
				return false
			case *ast.CommClause:
				if n.Comm != nil {
					checkHeld(pass, []ast.Stmt{n.Comm}, guarded, held)
				}
				checkHeld(pass, n.Body, guarded, held)
				return false
			case *ast.SendStmt:
				if held && !guarded[n] {
					guarded[n] = true
					pass.Reportf(n.Arrow, "blocking send while a mutex is held, outside a select with a stop/ctx escape case; every other taker of the lock blocks with it")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && held && !guarded[n] {
					guarded[n] = true
					pass.Reportf(n.OpPos, "blocking receive while a mutex is held, outside a select with a stop/ctx escape case; every other taker of the lock blocks with it")
				}
			}
			return true
		})
	}
}

// lockCall recognizes the statements `x.Lock()`, `x.RLock()`, `x.Unlock()`
// and `x.RUnlock()` and returns the method's name. A deferred Unlock is not
// one: the lock stays held to the end of the function.
func lockCall(st ast.Stmt) (string, bool) {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.Sel.Name, true
	}
	return "", false
}

// inLoop reports whether the enclosing-node stack places the current node
// inside a for/range statement of the innermost function literal or decl.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// commOp extracts the channel operation of a select comm clause: the
// SendStmt itself, or the receive UnaryExpr inside an expression or
// assignment statement. Returns nil for the default clause.
func commOp(comm ast.Stmt) ast.Node {
	switch s := comm.(type) {
	case *ast.SendStmt:
		return s
	case *ast.ExprStmt:
		if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u
			}
		}
	}
	return nil
}

// hasEscape reports whether the select can always make progress during
// shutdown: a default clause, a receive from a lifecycle channel, or a receive
// whose closed branch leaves the loop. stack holds the select and the nodes
// enclosing it.
func hasEscape(sel *ast.SelectStmt, stack []ast.Node) bool {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default clause
		}
		var recv *ast.UnaryExpr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv, _ = s.X.(*ast.UnaryExpr)
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				recv, _ = s.Rhs[0].(*ast.UnaryExpr)
			}
		}
		if recv == nil || recv.Op != token.ARROW {
			continue
		}
		if isEscapeChan(recv.X) || closedLeaves(cc, stack) {
			return true
		}
	}
	return false
}

// closedLeaves reports whether a receive clause is written `v, ok := <-ch`
// (or with =) and its body holds an `if !ok { … }` whose last statement
// leaves the loop: closing ch then ends the loop, as it ends a range over ch.
func closedLeaves(cc *ast.CommClause, stack []ast.Node) bool {
	as, ok := cc.Comm.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 2 {
		return false
	}
	flag, ok := as.Lhs[1].(*ast.Ident)
	if !ok || flag.Name == "_" {
		return false
	}
	for _, st := range cc.Body {
		ifs, ok := st.(*ast.IfStmt)
		if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) == 0 {
			continue
		}
		not, ok := ifs.Cond.(*ast.UnaryExpr)
		if !ok || not.Op != token.NOT {
			continue
		}
		if id, ok := not.X.(*ast.Ident); ok && id.Name == flag.Name &&
			leavesLoop(ifs.Body.List[len(ifs.Body.List)-1], stack) {
			return true
		}
	}
	return false
}

// leavesLoop reports whether st leaves the loop around the select: a return,
// or a break whose label names a for or range statement enclosing it in the
// same function. A bare break leaves only the select.
func leavesLoop(st ast.Stmt, stack []ast.Node) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		if st.Tok != token.BREAK || st.Label == nil {
			return false
		}
		for i := len(stack) - 1; i >= 0; i-- {
			switch n := stack[i].(type) {
			case *ast.FuncLit, *ast.FuncDecl:
				return false
			case *ast.LabeledStmt:
				if n.Label.Name == st.Label.Name {
					switch n.Stmt.(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						return true
					}
					return false
				}
			}
		}
	}
	return false
}

// isEscapeChan reports whether the channel expression looks like a
// lifecycle channel: ctx.Done()-style calls or stop/quit/... names.
func isEscapeChan(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if s, ok := e.Fun.(*ast.SelectorExpr); ok {
			return s.Sel.Name == "Done"
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			return id.Name == "Done"
		}
	case *ast.Ident:
		return escapeChan.MatchString(e.Name)
	case *ast.SelectorExpr:
		return escapeChan.MatchString(e.Sel.Name)
	}
	return false
}
