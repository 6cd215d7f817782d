package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lifecycle enforces the resource-lifecycle contract of the client surface
// with a flow-sensitive dataflow analysis over the lint IR (ir.go): a Rows,
// Stmt, Session, or Conn must not be used after Close. The read transaction
// is finalized at Rows.Close, the server portal is gone after client Close,
// and a Session's snapshot is dead — a post-Close Next/Scan/Exec silently
// reads a finalized cursor. Close and Err stay callable by contract
// (database/sql parity).
//
// It is a must-analysis — a use is reported only when the kill dominates it
// (it happened on every path) — so the analyzer cannot cry wolf on
// conditional closes. Helper functions that close a parameter are seen
// through via the summaries pass (CloseParams), cross-package included.
var Lifecycle = &Analyzer{
	Name: "lifecycle",
	Doc:  "flag Rows/Stmt/Session/Conn used after Close (dataflow)",
	Packages: []string{
		"neurdb",
		"neurdb/client",
		"neurdb/internal/server",
		"neurdb/internal/executor",
		"neurdb/internal/storage",
		"neurdb/cmd/...",
		"neurdb/examples/...",
	},
	Run: runLifecycle,
}

// closableNames are the module types whose Close finalizes the value.
var closableNames = map[string]bool{
	"Rows":    true,
	"Stmt":    true,
	"Session": true,
	"Conn":    true,
}

// lifecycle lattice per tracked variable.
type lcState uint8

const (
	lcLive   lcState = iota // usable (or unknown — treated as usable)
	lcClosed                // closed on every path reaching here
)

// lcFacts is a block-entry/exit environment: the state of each variable.
type lcFacts struct {
	state map[*types.Var]lcState
}

func (e lcFacts) clone() lcFacts {
	n := lcFacts{state: make(map[*types.Var]lcState, len(e.state))}
	for k, v := range e.state {
		n.state[k] = v
	}
	return n
}

// join merges predecessor exits must-style: a variable keeps a non-live
// state only when every predecessor agrees; disagreement decays to live
// (never report from a path-dependent state).
func lcJoin(a, b lcFacts) lcFacts {
	out := lcFacts{state: make(map[*types.Var]lcState)}
	for v, s := range a.state {
		if b.state[v] == s {
			out.state[v] = s
		}
	}
	return out
}

func lcEqual(a, b lcFacts) bool {
	if len(a.state) != len(b.state) {
		return false
	}
	for v, s := range a.state {
		if b.state[v] != s {
			return false
		}
	}
	return true
}

// inModulePkg reports whether the named type is declared in this module
// (the analyzers run over both the real tree and fixture modules sharing
// the "neurdb" module path).
func inModulePkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "neurdb" || strings.HasPrefix(pkg.Path(), "neurdb/")
}

// closableVar reports whether v holds one of the tracked finalizable types
// (directly or behind a pointer).
func closableVar(v *types.Var) bool {
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && closableNames[n.Obj().Name()] && inModulePkg(n.Obj().Pkg())
}

type lifecycleScan struct {
	pass *Pass
	info *types.Info
	// reported dedups diagnostics across the reporting walk.
	reported map[token.Pos]bool
}

func runLifecycle(pass *Pass) error {
	s := &lifecycleScan{pass: pass, info: pass.TypesInfo, reported: make(map[token.Pos]bool)}
	var bodies []*ast.BlockStmt
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				bodies = append(bodies, fd.Body)
			}
		}
		// Function literals get their own graphs (never inlined).
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				bodies = append(bodies, lit.Body)
			}
			return true
		})
	}
	for _, body := range bodies {
		s.analyze(body)
	}
	return nil
}

func (s *lifecycleScan) analyze(body *ast.BlockStmt) {
	ir := BuildIR(body)
	if ir.Imprecise {
		return
	}
	blocks := ir.ReversePostorder()
	idx := make(map[*Block]int, len(blocks))
	for i, b := range blocks {
		idx[b] = i
	}
	preds := make([][]int, len(blocks))
	for i, b := range blocks {
		for _, succ := range b.Succs {
			if j, ok := idx[succ]; ok {
				preds[j] = append(preds[j], i)
			}
		}
	}

	entry := make([]lcFacts, len(blocks))
	exit := make([]lcFacts, len(blocks))
	for i := range blocks {
		entry[i] = lcFacts{state: map[*types.Var]lcState{}}
		exit[i] = entry[i]
	}

	// Fixpoint without reporting, then one reporting pass from the stable
	// entry states — otherwise intermediate iterations double-report.
	for changed := true; changed; {
		changed = false
		for i, b := range blocks {
			in := lcFacts{state: map[*types.Var]lcState{}}
			for k, p := range preds[i] {
				if k == 0 {
					in = exit[p].clone()
				} else {
					in = lcJoin(in, exit[p])
				}
			}
			out := in.clone()
			for _, n := range b.Nodes {
				s.transfer(&out, n, nil)
			}
			if !lcEqual(out, exit[i]) {
				exit[i] = out
				changed = true
			}
			entry[i] = in
		}
	}
	for i, b := range blocks {
		env := entry[i].clone()
		for _, n := range b.Nodes {
			s.transfer(&env, n, s.reportUse)
		}
	}
}

// reportUse fires a diagnostic for a bad use discovered during the
// reporting pass.
func (s *lifecycleScan) reportUse(pos token.Pos, format string, args ...any) {
	if s.reported[pos] {
		return
	}
	s.reported[pos] = true
	s.pass.Reportf(pos, format, args...)
}

// localVar resolves an identifier to the local/param variable it denotes.
func (s *lifecycleScan) localVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := s.info.Uses[id]
	if obj == nil {
		obj = s.info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// transfer pushes one block node through the environment, invoking report
// (when non-nil) for uses of dead values. Nodes are walked in syntactic
// order with function literals skipped.
func (s *lifecycleScan) transfer(env *lcFacts, node ast.Node, report func(token.Pos, string, ...any)) {
	switch n := node.(type) {
	case *ast.DeferStmt:
		// Deferred calls run at function exit: `defer rows.Close()` does
		// not close rows here. Argument evaluation is immediate but a
		// deferred call's arguments are overwhelmingly the receiver
		// itself; skipping avoids false "use after close" on
		// close-then-defer-close cleanup chains.
		return
	case *ast.GoStmt:
		// A goroutine's body runs concurrently on its own timeline;
		// batchalias owns cross-goroutine escapes.
		return
	case *ast.RangeStmt:
		// Per-iteration binding only (see ir.go conventions): fresh
		// values for the key/value vars.
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if v := s.localVar(e); v != nil {
				delete(env.state, v)
			}
		}
		return
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				s.transferAssign(env, m, report, walk)
				return false
			case *ast.CallExpr:
				s.transferCall(env, m, report, walk)
				return false
			}
			return true
		})
	}
	walk(node)
}

// transferAssign evaluates RHS effects/uses, then rebinds the LHS.
func (s *lifecycleScan) transferAssign(env *lcFacts, as *ast.AssignStmt, report func(token.Pos, string, ...any), walk func(ast.Node)) {
	for _, rhs := range as.Rhs {
		walk(rhs)
	}
	for i, lhs := range as.Lhs {
		v := s.localVar(lhs)
		if v == nil {
			// Writing a dead value into a field/global is batchalias's
			// domain (escape), not lifecycle's; but keep walking so
			// index expressions etc. get their uses checked.
			walk(lhs)
			continue
		}
		// Rebinding kills any previous state; aliasing another tracked
		// var copies its state.
		delete(env.state, v)
		if len(as.Rhs) == len(as.Lhs) {
			if w := s.localVar(as.Rhs[i]); w != nil {
				if st, ok := env.state[w]; ok {
					env.state[v] = st
				}
			}
		}
	}
}

// transferCall handles close/finalize kills and checks receiver/argument
// uses.
func (s *lifecycleScan) transferCall(env *lcFacts, call *ast.CallExpr, report func(token.Pos, string, ...any), walk func(ast.Node)) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if v := s.localVar(sel.X); v != nil && closableVar(v) {
			switch sel.Sel.Name {
			case "Close":
				for _, arg := range call.Args {
					walk(arg)
				}
				env.state[v] = lcClosed
				return
			case "Err":
				// Err after Close is part of the contract.
				return
			default:
				if report != nil && env.state[v] == lcClosed {
					report(sel.Pos(), "%s.%s() after %s.Close(): the value is finalized on every path reaching this use", sel.X.(*ast.Ident).Name, sel.Sel.Name, sel.X.(*ast.Ident).Name)
				}
			}
		} else {
			walk(sel.X)
		}
	} else {
		walk(call.Fun)
	}

	// Helper calls that close a parameter (interprocedural, summary facts).
	if fn := calleeFunc(s.info, call); fn != nil && inModulePkg(fn.Pkg()) {
		var sum Summary
		if s.pass.ImportAnalyzerFact(summariesName, fn.Pkg().Path(), summaryKey(fn), &sum) {
			if sum.closesParam(-1) {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if v := s.localVar(sel.X); v != nil && closableVar(v) {
						env.state[v] = lcClosed
					}
				}
			}
			for i, arg := range call.Args {
				if !sum.closesParam(i) {
					continue
				}
				if v := s.localVar(arg); v != nil && closableVar(v) {
					walk(arg)
					env.state[v] = lcClosed
				}
			}
		}
	}
	for _, arg := range call.Args {
		walk(arg)
	}
}
