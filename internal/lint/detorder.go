package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetOrder enforces the byte-identical-output guarantee (PR 4/PR 5: parallel
// execution equals serial, wire encodings are golden-file stable, WAL
// checkpoints diff cleanly across runs): in the determinism-critical
// packages, a `for range` over a map must not feed an order-sensitive sink,
// because Go randomizes map iteration order per run.
//
// A map-range loop is reported when its body, in iteration order:
//   - accumulates into a variable declared outside the loop via
//     `x = append(x, ...)` or `x = f(x, ...)` (the encoder idiom
//     `dst = appendString(dst, k)` included) — unless the accumulation is a
//     commutative numeric reduction (+, *, |, &, ^, min, max);
//   - concatenates onto an outer string (`s += ...`);
//   - writes to a stream (methods named Write*, fmt.Fprint*);
//   - sends on a channel.
//
// Loops that only build other maps, index into keyed structures, or reduce
// commutatively are order-insensitive and not reported, and so is the fix
// idiom itself: a loop that collects into a slice which is then sorted later
// in the same function. For everything else the fix is to collect the keys,
// sort them, and range over the slice.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "flag map iteration feeding order-sensitive sinks in determinism-critical packages",
	Packages: []string{
		"neurdb/internal/executor",
		"neurdb/internal/wire",
		"neurdb/internal/wal",
		"neurdb/internal/stats",
	},
	Run: runDetOrder,
}

func runDetOrder(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			body := fd.Body
			ast.Inspect(body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := info.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				sink, accum, found := orderSensitiveSink(info, rng)
				if !found {
					return true
				}
				// The fix idiom — collect keys, sort, range the slice —
				// is itself an accumulation into a map-ordered slice;
				// exempt it when the accumulator is sorted after the loop.
				if accum != "" && sortedAfter(body, rng.End(), accum) {
					return true
				}
				pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop %s; sort the keys first", sink)
				return true
			})
		}
	}
	return nil
}

// sortedAfter reports whether, after pos, the function body sorts the named
// accumulator: a call to anything in the sort/slices packages, or a function
// whose name mentions Sort, with the accumulator as an argument.
func sortedAfter(body *ast.BlockStmt, pos token.Pos, accum string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		name, recv := selName(call)
		sortish := isPkgSel(recv, "sort") || isPkgSel(recv, "slices") || strings.Contains(name, "Sort")
		if !sortish {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == accum {
				found = true
			}
		}
		return !found
	})
	return found
}

// orderSensitiveSink scans the loop body for the first order-sensitive sink,
// returning its description and, for accumulation sinks, the accumulator
// identifier (so the collect-then-sort idiom can be exempted).
func orderSensitiveSink(info *types.Info, rng *ast.RangeStmt) (sink, accum string, found bool) {
	declaredOutside := func(id *ast.Ident) bool {
		obj := info.Uses[id]
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink, found = "sends on a channel in iteration order", true
			return false
		case *ast.AssignStmt:
			if s, id, ok := classifyAccumulation(info, n, declaredOutside); ok {
				sink, accum, found = s, id, true
				return false
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if s, ok := streamWrite(call); ok {
					sink, found = s, true
					return false
				}
			}
		}
		return true
	})
	return sink, accum, found
}

// classifyAccumulation detects `x = f(x, ...)`, `x = append(x, ...)`,
// `x op= v`, and `x = x op v` onto an identifier declared outside the loop,
// exempting commutative numeric reductions.
func classifyAccumulation(info *types.Info, as *ast.AssignStmt, outside func(*ast.Ident) bool) (string, string, bool) {
	if len(as.Lhs) != 1 {
		return "", "", false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok || !outside(lhs) {
		return "", "", false
	}
	commutativeOp := func(op token.Token) bool {
		switch op {
		case token.ADD, token.MUL, token.OR, token.AND, token.XOR,
			token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN,
			token.AND_ASSIGN, token.XOR_ASSIGN:
			return true
		}
		return false
	}
	isString := func() bool {
		t := info.TypeOf(lhs)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	hit := func() (string, string, bool) {
		return "accumulates into " + lhs.Name + " in iteration order", lhs.Name, true
	}
	switch as.Tok {
	case token.ASSIGN:
		switch rhs := as.Rhs[0].(type) {
		case *ast.CallExpr:
			// f(x, ...): the previous value feeds the next — an
			// ordered accumulation (append, dst = appendString(dst, k)).
			for _, arg := range rhs.Args {
				if id, ok := arg.(*ast.Ident); ok && id.Name == lhs.Name {
					name, _ := selName(rhs)
					if name == "min" || name == "max" {
						return "", "", false
					}
					return hit()
				}
			}
		case *ast.BinaryExpr:
			usesLHS := false
			ast.Inspect(rhs, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == lhs.Name {
					usesLHS = true
				}
				return true
			})
			if usesLHS && (!commutativeOp(rhs.Op) || isString()) {
				return hit()
			}
		}
	case token.DEFINE:
	default:
		// Compound assignment: x op= v.
		if !commutativeOp(as.Tok) || isString() {
			return hit()
		}
	}
	return "", "", false
}

// streamWrite detects writes to byte streams: methods named Write* and the
// fmt.Fprint family.
func streamWrite(call *ast.CallExpr) (string, bool) {
	name, recv := selName(call)
	switch {
	case strings.HasPrefix(name, "Write"):
		return "writes to a stream in iteration order", true
	case (name == "Fprintf" || name == "Fprintln" || name == "Fprint") && isPkgSel(recv, "fmt"):
		return "writes formatted output in iteration order", true
	}
	return "", false
}
