// Package propmask flags bit-shift widths on proposition bitmasks that are
// not tracked against the engine's declared ceilings.
//
// Source invariant: a monitor letter is a uint32 bitmask over at most
// boolfn.MaxVars (= 24) propositions, which dist.PropMap.Restrict enforces
// (internal/dist/propmap.go); a LocalState packs at most dist.MaxLocalProps
// (= 32) proposition bits of one process; and boolean-function cubes carry at
// most boolfn.MaxVars variables (internal/boolfn/boolfn.go). Alphabet tables
// are sized 1 << len(props), so an unchecked proposition count silently
// truncates masks or explodes table allocations (2^n letters).
//
// Two rules:
//
//  1. A constant shift count that equals or exceeds the operand's bit width
//     always yields 0/truncation — always a bug.
//  2. A shift whose count derives from a function parameter (the parameter
//     itself, or len(parameter)) must be bounded inside the same function
//     by a comparison against a *named* constant (boolfn.MaxVars,
//     dist.MaxLocalProps, ...). Counts of the form x%c or x&c with constant c
//     are self-bounding and exempt, as are counts derived from locals,
//     fields, and range variables (bounded by their producers).
package propmask

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"decentmon/internal/analysis"
)

// Analyzer is the propmask analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "propmask",
	Doc:  "flags shifts on Letter/prop bitmasks whose width is untracked: constant counts >= operand width, and parameter-derived counts not bounded by a named constant such as boolfn.MaxVars or dist.MaxLocalProps (internal/dist/propmap.go)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := paramObjs(pass, fd)
	bounded := boundedParams(pass, fd, params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.SHL && be.Op != token.SHR) {
			return true
		}
		checkShift(pass, be, params, bounded)
		return true
	})
}

func checkShift(pass *analysis.Pass, be *ast.BinaryExpr, params, bounded map[types.Object]bool) {
	count := ast.Unparen(be.Y)
	if tv, ok := pass.TypesInfo.Types[count]; ok && tv.Value != nil {
		// Rule 1: constant count vs operand width.
		if c, exact := constant.Int64Val(tv.Value); exact {
			if w := operandWidth(pass, be); w > 0 && c >= int64(w) {
				pass.Reportf(be.OpPos, "shift count %d >= operand width %d: the result is always 0/truncated (prop bitmasks are bounded by boolfn.MaxVars and dist.MaxLocalProps)", c, w)
			}
		}
		return
	}
	// Self-bounding count forms: x % c, x & c.
	if inner, ok := count.(*ast.BinaryExpr); ok && (inner.Op == token.REM || inner.Op == token.AND) {
		if tv, ok := pass.TypesInfo.Types[inner.Y]; ok && tv.Value != nil {
			return
		}
	}
	// Rule 2: parameter-derived counts must be guarded in-function.
	root := paramRoot(pass, count, params)
	if root == nil || bounded[root] {
		return
	}
	pass.Reportf(be.OpPos, "shift count derived from parameter %s is not bounded against a named constant (e.g. boolfn.MaxVars or dist.MaxLocalProps) in this function", root.Name())
}

// operandWidth returns the bit width of the shift's result type, or 0 if
// unknown/untyped.
func operandWidth(pass *analysis.Pass, be *ast.BinaryExpr) int {
	tv, ok := pass.TypesInfo.Types[be]
	if !ok {
		return 0
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 || b.Info()&types.IsUntyped != 0 {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr:
		return 64
	}
	return 0
}

// paramObjs collects the function's parameter objects.
func paramObjs(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// paramRoot resolves a shift-count expression to the parameter it derives
// from: the parameter ident itself, or len(x) where x's base ident is a
// parameter. Anything else returns nil (locals, fields, index expressions
// — bounded by their producers, not this function's contract).
func paramRoot(pass *analysis.Pass, e ast.Expr, params map[types.Object]bool) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && params[obj] {
			return obj
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "len" && len(e.Args) == 1 {
			if base, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[base]; obj != nil && params[obj] {
					return obj
				}
			}
		}
	}
	return nil
}

// boundedParams returns the parameters that the function body compares
// (<, <=, >, >=) against a named constant — the explicit guard the rule
// requires.
func boundedParams(pass *analysis.Pass, fd *ast.FuncDecl, params map[types.Object]bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if !isNamedConst(pass, pair[1]) {
				continue
			}
			for obj := range params {
				if mentionsObj(pass, pair[0], obj) {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isNamedConst reports whether e resolves to a declared (named) constant.
func isNamedConst(pass *analysis.Pass, e ast.Expr) bool {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	}
	_, ok := obj.(*types.Const)
	return ok
}

// mentionsObj reports whether e contains an identifier bound to obj.
func mentionsObj(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
