package lint

import (
	"go/ast"
	"go/token"
)

// CommitGate enforces the WAL commit protocol (internal/txn +
// internal/wal):
//
//   - a redo record is appended (AppendCommit) only inside a commit-lock
//     window (lockCommits ... unlockCommits), so records are appended in
//     commit-timestamp order and a checkpoint cut under the same lock never
//     observes a half-published commit;
//   - no version stamp (SetBeginTS/SetEndTS) or status publication
//     (.status = StatusCommitted) happens before the WAL append in a
//     committing function — a transaction must never be observable before
//     its redo record is in the log;
//   - a function that appends a commit record also calls Sync: the commit
//     may only be acknowledged after the record is durable;
//   - publishing StatusCommitted in a function that never appends at all
//     bypasses the log entirely.
//
// The checks are linear over each function's call/assignment events in
// source order — exact for the straight-line commit paths they guard.
var CommitGate = &Analyzer{
	Name:     "commitgate",
	Doc:      "flag commit paths that stamp/publish before the WAL append under the commit lock or ack before Sync",
	Packages: []string{"neurdb/internal/txn"},
	Run:      runCommitGate,
}

// gateEvent is one protocol-relevant occurrence inside a function body, in
// source order.
type gateEvent struct {
	kind string // "lock", "unlock", "append", "sync", "stamp", "publish"
	pos  token.Pos
}

func selName(call *ast.CallExpr) (string, ast.Expr) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name, fun.X
	case *ast.Ident:
		return fun.Name, nil
	}
	return "", nil
}

func isPkgSel(x ast.Expr, pkg string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == pkg
}

// collectGateEvents walks the function body in source order. Function
// literals are skipped: they run at another time, on their own event
// timeline.
func collectGateEvents(body *ast.BlockStmt) []gateEvent {
	var events []gateEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			name, _ := selName(n)
			switch name {
			case "lockCommits":
				events = append(events, gateEvent{"lock", n.Pos()})
			case "unlockCommits":
				events = append(events, gateEvent{"unlock", n.Pos()})
			case "AppendCommit":
				events = append(events, gateEvent{"append", n.Pos()})
			case "Sync":
				events = append(events, gateEvent{"sync", n.Pos()})
			case "SetBeginTS", "SetEndTS":
				events = append(events, gateEvent{"stamp", n.Pos()})
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "status" || i >= len(n.Rhs) {
					continue
				}
				if committedIdent(n.Rhs[i]) {
					events = append(events, gateEvent{"publish", lhs.Pos()})
				}
			}
		}
		return true
	})
	return events
}

func committedIdent(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "StatusCommitted"
	case *ast.SelectorExpr:
		return e.Sel.Name == "StatusCommitted"
	}
	return false
}

func runCommitGate(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			events := collectGateEvents(fd.Body)
			var appendPos []token.Pos
			for _, e := range events {
				if e.kind == "append" {
					appendPos = append(appendPos, e.pos)
				}
			}
			var publishes []gateEvent
			for _, e := range events {
				if e.kind == "publish" {
					publishes = append(publishes, e)
				}
			}
			if len(appendPos) == 0 {
				// Rule: StatusCommitted must not be published by a
				// function that never appends a redo record.
				for _, e := range publishes {
					pass.Reportf(e.pos, "publishes StatusCommitted without any WAL AppendCommit in this function; a commit must be logged before it becomes observable")
				}
				continue
			}

			firstAppend := appendPos[0]
			lockDepth := 0
			sawSync := false
			for _, e := range events {
				switch e.kind {
				case "lock":
					lockDepth++
				case "unlock":
					lockDepth--
				case "append":
					if lockDepth <= 0 {
						pass.Reportf(e.pos, "AppendCommit outside a commit-lock window; the append must happen under lockCommits so records follow commit order and a checkpoint cut never sees a half-published commit")
					}
				case "stamp", "publish":
					if e.pos < firstAppend {
						pass.Reportf(e.pos, "stamps/publishes transaction state before the WAL append; the redo record must reach the log before the commit becomes observable")
					}
				case "sync":
					sawSync = true
				}
			}
			if !sawSync {
				pass.Reportf(firstAppend, "commit path appends to the WAL but never calls Sync; the commit must not be acknowledged before its record is durable")
			}
		}
	}
	return nil
}
