package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// BatchAlias enforces the scratch-batch reuse contract (PR 3, rel.Batch):
// executor batches are recycled across iterations, so retaining the batch
// pointer or its Rows slice past the iteration that produced it silently
// corrupts results once the producer refills the buffer. The analyzer flags
// escapes of those values into struct fields, package-level variables, or
// goroutine closures unless the value is explicitly cloned
// (append/copy/Clone/New*). (Page heads need no such rule: storage copies
// them into a buffer the caller owns.)
//
// Retaining individual rel.Row elements is allowed: the batch contract
// guarantees rows placed in a batch stay valid after refills (producers
// pass storage-owned rows or allocate fresh ones).
var BatchAlias = &Analyzer{
	Name: "batchalias",
	Doc:  "flag rel.Batch Rows slices escaping the iteration that produced them without a clone",
	Packages: []string{
		"neurdb",
		"neurdb/internal/executor",
		"neurdb/internal/server",
	},
	Run: runBatchAlias,
}

const batchType = "neurdb/internal/rel.Batch"

func isBatchPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && p.Elem().String() == batchType
}

// unwrap strips parens and slice expressions: b.Rows[:n] aliases the same
// backing array as b.Rows.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// isBatchRowsSel reports whether e is `<batch>.Rows` (possibly re-sliced)
// where <batch> has type rel.Batch or *rel.Batch.
func isBatchRowsSel(info *types.Info, e ast.Expr) bool {
	sel, ok := unwrap(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Rows" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.String() == batchType
}

// allowedClone reports whether the RHS makes its own copy: the append and
// copy builtins, make, nil, composite literals, or a constructor/cloner
// call (New*/Clone*/Copy*/Make*).
func allowedClone(e ast.Expr) bool {
	switch x := unwrap(e).(type) {
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, isLit := x.X.(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		name, _ := selName(x)
		if name == "append" || name == "copy" || name == "make" {
			return true
		}
		for _, prefix := range []string{"New", "Clone", "Copy", "Make"} {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
	}
	return false
}

// escapingLHS classifies an assignment target that outlives the current
// iteration: a struct-field write or a package-level variable.
func escapingLHS(info *types.Info, lhs ast.Expr) (string, bool) {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		// Selecting a field (not a package-qualified name).
		if sel := info.Selections[l]; sel != nil && sel.Kind() == types.FieldVal {
			return "struct field " + l.Sel.Name, true
		}
	case *ast.Ident:
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "package variable " + l.Name, true
		}
	}
	return "", false
}

func runBatchAlias(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					target, escapes := escapingLHS(info, lhs)
					if !escapes {
						continue
					}
					// Multi-value call assignments pair every LHS
					// with the single RHS call.
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					} else {
						continue
					}
					checkAliasRHS(pass, target, lhs, rhs)
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoCapture(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

func checkAliasRHS(pass *Pass, target string, lhs, rhs ast.Expr) {
	info := pass.TypesInfo
	if allowedClone(rhs) {
		return
	}
	switch {
	case isBatchRowsSel(info, rhs):
		pass.Reportf(lhs.Pos(), "%s retains a rel.Batch Rows slice past the iteration that produced it; the batch is recycled on the next fill — clone with append([]rel.Row(nil), b.Rows...) or copy", target)
	case isBatchPtr(info.TypeOf(rhs)):
		pass.Reportf(lhs.Pos(), "%s retains a *rel.Batch produced elsewhere; the producer recycles it on the next iteration — store a clone or own the batch", target)
	}
}

// checkGoCapture flags goroutines that capture a *rel.Batch declared
// outside the closure: the spawning iteration continues refilling the batch
// while the goroutine reads it.
func checkGoCapture(pass *Pass, lit *ast.FuncLit) {
	info := pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || !isBatchPtr(v.Type()) {
			return true
		}
		// Declared outside the literal?
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			pass.Reportf(id.Pos(), "goroutine captures *rel.Batch %s declared outside the closure; the spawning loop recycles the batch while the goroutine reads it — pass a clone or move ownership", id.Name)
		}
		return true
	})
}
