// Package hotalloc implements the bgplint analyzer that enforces a
// per-iteration allocation budget inside functions marked
// //bgplint:hotpath.
//
// The solve loop runs once per (target, attacker, policy) cell — tens of
// millions of iterations in a full-topology sweep — so a single
// per-iteration allocation multiplies into gigabytes of garbage and
// dominates the profile (`go run ./bench -trace 1` reports it as
// core.solve_full.allocs_per_op and hijack.measure.allocs_per_op). Annotating a function with //bgplint:hotpath in its doc
// comment opts its loops into the budget; inside those loop bodies the
// analyzer flags
//
//   - fmt.Sprintf/Errorf/Sprint/... calls (every call allocates),
//   - map and slice composite literals and make() calls,
//   - append to a slice declared in the function without
//     make-with-capacity — the growth reallocates every few iterations;
//     appends to reused struct-field buffers and to slices the caller
//     owns stay allowed,
//
// and, anywhere in the function, append(xs, nil) / append(xs, []T{})
// where xs is a slice of slices: growing a truncated bucket array that
// way overwrites the inner slices parked beyond its length, so every
// bucket re-grows from zero on each use. That shape was 82% of a Fig2
// sweep's allocated objects (core.Solver's since-removed growBuckets) while every
// per-loop rule above stayed silent — the allocation happens later, in
// an append the rules rightly allow.
//
// The check is the enforcement half of the dense-core rewrite contract:
// annotate the kernel now, and any future change that sneaks an
// allocation into the loop fails lint instead of a benchmark review.
package hotalloc

import (
	"go/ast"
	"go/types"

	"github.com/bgpsim/bgpsim/internal/lint/analysis"
	"github.com/bgpsim/bgpsim/internal/lint/directive"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags per-iteration allocation patterns (fmt.Sprintf, map/slice " +
		"literals, make, append without preallocated cap) in loops of " +
		"//bgplint:hotpath functions, and appends of an empty slice to a " +
		"slice of slices anywhere in them",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	var params map[types.Object]bool // lazily built: most packages have no hotpaths
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !directive.Hotpath(fn) {
				continue
			}
			if params == nil {
				params = paramObjs(pass)
			}
			checkHotpath(pass, fn, params)
		}
	}
	return nil, nil
}

// checkHotpath inspects every loop body in fn (nested function literals
// included — they run inside the hot path too).
func checkHotpath(pass *analysis.Pass, fn *ast.FuncDecl, params map[types.Object]bool) {
	prealloc := preallocated(pass, fn.Body)
	for obj := range params { //bgplint:ignore maporder set union; no order-dependent effect
		prealloc[obj] = true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch x := n.(type) {
		case *ast.ForStmt:
			body = x.Body
		case *ast.RangeStmt:
			body = x.Body
		case *ast.CallExpr:
			checkArenaDrop(pass, x)
			return true
		default:
			return true
		}
		checkLoopBody(pass, body, prealloc)
		return true
	})
}

// preallocated collects the objects of slice variables declared with
// make(T, n) or make(T, n, c) anywhere in body — appends to those do not
// grow per iteration (amortized by the caller-chosen capacity).
func preallocated(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "make" {
				continue
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			lhs, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[lhs]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[lhs]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func checkLoopBody(pass *analysis.Pass, body *ast.BlockStmt, prealloc map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Nested loops are visited by checkHotpath on their own;
			// avoid double-reporting their bodies.
			if n != ast.Node(body) {
				return false
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[x]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(x.Pos(), "map literal allocates every iteration of a hotpath loop; hoist it out or reuse a cleared map")
			case *types.Slice:
				pass.Reportf(x.Pos(), "slice literal allocates every iteration of a hotpath loop; hoist it out or reuse a buffer")
			}
		case *ast.CallExpr:
			checkCall(pass, x, prealloc)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, prealloc map[types.Object]bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
			return
		}
		switch fun.Name {
		case "make":
			pass.Reportf(call.Pos(), "make allocates every iteration of a hotpath loop; hoist it out and reuse the buffer")
		case "append":
			checkAppend(pass, call, prealloc)
		}
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates every iteration of a hotpath loop; format outside the loop or write into a reused buffer", fn.Name())
		}
	}
}

// checkAppend flags append whose destination is a local slice not
// preallocated with capacity. Appends to struct fields, parameters, or
// package variables are assumed to be reused or caller-owned buffers
// (prealloc contains the make-with-cap locals and all parameters).
func checkAppend(pass *analysis.Pass, call *ast.CallExpr, prealloc map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // selector (s.buf) or index expression: a reused buffer
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || prealloc[obj] {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return
	}
	// Package-level variables are long-lived buffers.
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return
	}
	pass.Reportf(call.Pos(),
		"append to %s grows an unpreallocated local slice inside a hotpath loop; make(..., 0, cap) it or reuse a field buffer", id.Name)
}

// checkArenaDrop flags append(xs, nil) and append(xs, []T{}) where xs is
// a slice of slices: the appended element replaces whatever inner slice
// sat at that position of xs's backing array, capacity included.
func checkArenaDrop(pass *analysis.Pass, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	outer, ok := pass.TypesInfo.Types[call.Args[0]].Type.Underlying().(*types.Slice)
	if !ok {
		return
	}
	if _, ok := outer.Elem().Underlying().(*types.Slice); !ok {
		return
	}
	for _, arg := range call.Args[1:] {
		if !emptySlice(pass, arg) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"append of an empty slice to a slice of slices drops the inner buffer retained at that position; re-slice within capacity and reset the element's length instead")
	}
}

// emptySlice reports whether e is the nil identifier or a slice literal
// with no elements.
func emptySlice(pass *analysis.Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, isNil := pass.TypesInfo.Uses[x].(*types.Nil)
		return isNil
	case *ast.CompositeLit:
		return len(x.Elts) == 0
	}
	return false
}

// paramObjs collects every object declared by a function parameter or
// named result in the package.
func paramObjs(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			switch x := n.(type) {
			case *ast.FuncDecl:
				ft = x.Type
			case *ast.FuncLit:
				ft = x.Type
			default:
				return true
			}
			for _, fl := range []*ast.FieldList{ft.Params, ft.Results} {
				if fl == nil {
					continue
				}
				for _, field := range fl.List {
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							out[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}
