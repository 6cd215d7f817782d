package lint

import (
	"go/ast"
	"go/types"
)

// AtomicMix keeps atomics typed. A sync/atomic package function
// (atomic.AddUint64(&s.n, 1)) leaves s.n a plain field other lines can read
// plainly — a torn read — while a typed atomic (atomic.Uint64, ...) has no
// plain access that compiles. It also flags v.Store(...v.Load()...) on a
// typed atomic: two atomic operations are not a read-modify-write.
var AtomicMix = &Analyzer{
	Name:     "atomicmix",
	Doc:      "flag sync/atomic package functions (use typed atomics) and Store(Load()) read-modify-writes",
	Packages: []string{"neurdb", "neurdb/..."},
	Run:      runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			target := types.ExprString(sel.X)
			switch {
			case fn.Type().(*types.Signature).Recv() == nil:
				pass.Reportf(call.Pos(), "sync/atomic.%s on a plain value; declare it as a typed atomic (atomic.Uint64, atomic.Pointer[T], ...) so no access can bypass the atomic", fn.Name())
			case fn.Name() == "Store" && len(call.Args) == 1 && loads(call.Args[0], target):
				pass.Reportf(call.Pos(), "%s.Store(...%s.Load()...) is not an atomic read-modify-write; use Add or a CompareAndSwap loop", target, target)
			}
			return true
		})
	}
	return nil
}

// loads reports whether e calls target.Load().
func loads(e ast.Expr, target string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if s, ok := c.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Load" && types.ExprString(s.X) == target {
				found = true
			}
		}
		return !found
	})
	return found
}
