// Package obsappend implements the bgplint analyzer that guards the sweep
// kernel's ordering contract at its call sites.
//
// Callbacks that receive a *core.Outcome — the sweep runtime's extract
// functions — run on worker goroutines in COMPLETION
// order, which varies with the worker count. Appending to a slice captured
// from an enclosing scope inside such a callback therefore records results
// in a nondeterministic order (and, on the matrix paths, races outright):
// the classic way a sweep silently loses its bit-identical-at-any-worker-
// count guarantee. The deterministic patterns are indexed assignment into
// a preallocated slice (results[idx] = v) or returning a record for a
// streaming sweep.Reducer, whose Emit sees indices in order and may append
// freely.
package obsappend

import (
	"go/ast"
	"go/types"

	"github.com/bgpsim/bgpsim/internal/lint/analysis"
)

// OutcomePkgPath is the import path of the package owning the Outcome
// type. Tests point it at a testdata stand-in.
var OutcomePkgPath = "github.com/bgpsim/bgpsim/internal/core"

// Analyzer is the obsappend pass.
var Analyzer = &analysis.Analyzer{
	Name: "obsappend",
	Doc: "flags appends to captured slices inside *core.Outcome callbacks (observers/extractors), " +
		"which run in completion order; assign by index or reduce through a sweep.Reducer instead",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok || !takesOutcome(pass, lit) {
				return true
			}
			checkBody(pass, lit)
			return true
		})
	}
	return nil, nil
}

// takesOutcome reports whether the literal has a *core.Outcome parameter —
// the signature shared by sweep observers and matrix extract callbacks.
func takesOutcome(pass *analysis.Pass, lit *ast.FuncLit) bool {
	for _, field := range lit.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		ptr, ok := tv.Type.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Outcome" && obj.Pkg() != nil && obj.Pkg().Path() == OutcomePkgPath {
			return true
		}
	}
	return false
}

// checkBody flags append calls in the literal whose destination slice is
// captured from an enclosing scope.
func checkBody(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		root := rootIdent(call.Args[0])
		if root == nil {
			return true
		}
		obj := pass.TypesInfo.Uses[root]
		if obj == nil || obj.Pos() == 0 {
			return true
		}
		// Declared outside the literal = captured shared state.
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			pass.Reportf(call.Pos(),
				"append to captured %q inside a *core.Outcome callback runs in completion order, not index order; "+
					"assign results[idx] into a preallocated slice or stream through a sweep.Reducer", root.Name)
		}
		return true
	})
}

// rootIdent walks selector/index chains (res.Rows, out[i].Vals) down to
// the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
