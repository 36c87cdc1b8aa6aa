// Package errdrop implements the bgplint analyzer that flags silently
// discarded error returns from this module's own APIs.
//
// The simulator's entry points (Solver.Solve, Engine.Run, the
// bgpwire/mrt/topology parsers, the experiment runners) all report
// failure through their final error result; a call statement that drops
// that value turns a broken reproduction into a silently wrong one.
// Only implicit drops are flagged: an explicit `_ = f()` assignment is
// visible intent and stays allowed (the transport layer uses it for
// best-effort session teardown).
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/bgpsim/bgpsim/internal/lint/analysis"
)

// ModulePrefix scopes the analyzer to the module's own functions;
// stdlib calls (fmt.Fprintf and friends) are left to other tools.
// Tests point it at a testdata package path.
var ModulePrefix = "github.com/bgpsim/bgpsim"

// Analyzer is the errdrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "flags call statements that implicitly discard an error returned " +
		"by one of this module's own functions",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = s.Call
			case *ast.DeferStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if !inModule(fn.Pkg().Path()) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !returnsError(sig) {
				return true
			}
			pass.Reportf(call.Pos(),
				"result of %s.%s includes an error that is silently discarded; handle it or assign to _ explicitly",
				fn.Pkg().Name(), fn.Name())
			return true
		})
	}
	return nil, nil
}

func inModule(path string) bool {
	return path == ModulePrefix || strings.HasPrefix(path, ModulePrefix+"/")
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		named, ok := res.At(i).Type().(*types.Named)
		if ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}

// calleeFunc resolves the statically-known callee.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
