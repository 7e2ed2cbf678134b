package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockheldPkgs are the packages where a mutex held across a blocking
// call has already caused real trouble (PR 1 fixed Runner holding its
// lock across Compile) and where the store/service concurrency model
// forbids it by design: locks there protect in-memory maps only, and
// store I/O, channel waits, and HTTP round-trips must happen outside.
var lockheldPkgs = map[string]bool{
	"repro/internal/service":     true,
	"repro/internal/store":       true,
	"repro/internal/experiments": true,
}

// Lockheld flags sync.Mutex/RWMutex critical sections that reach a
// blocking operation — channel send/receive, select without default,
// time.Sleep, WaitGroup.Wait, net/http traffic, resilience retry
// loops, artifact-store I/O (store.File writes and syncs included), or
// segment-log I/O (a store.Log's or the write-ahead journal's syncs,
// flushes, closes and scans, and opening either) — before unlocking. A
// blocked critical section stalls every other goroutine behind the
// lock and is the classic shape of the memoization deadlocks the
// Runner once had. Group commit needs no waiver: callers write records
// under their locks with Write, which only buffers in memory, and wait
// for them with Sync after unlocking.
var Lockheld = &Analyzer{
	Name: "lockheld",
	Doc:  "flags locks held across blocking calls (store/journal I/O, channels, HTTP, sleeps)",
	Run:  runLockheld,
}

func runLockheld(pass *Pass) error {
	if !lockheldPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body != nil {
				checkLockFlow(pass, body, nil)
			}
			return true
		})
	}
	return nil
}

// heldLock is one acquired mutex: the receiver expression text
// identifies it well enough for intra-function matching.
type heldLock struct {
	expr string
	pos  token.Pos
}

// checkLockFlow walks one statement list with the set of locks held on
// entry, reporting blocking operations reached while any lock is held.
// Branch bodies are analyzed with a copy of the held set: acquisitions
// inside a branch do not leak out, a sound approximation for the
// lock/defer-unlock idiom this codebase uses exclusively.
func checkLockFlow(pass *Pass, body *ast.BlockStmt, held []heldLock) {
	for _, stmt := range body.List {
		held = lockStep(pass, stmt, held)
	}
}

func lockStep(pass *Pass, stmt ast.Stmt, held []heldLock) []heldLock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, kind := lockCall(pass, s.X); kind == "lock" {
			return append(append([]heldLock(nil), held...), heldLock{expr: recv, pos: s.Pos()})
		} else if kind == "unlock" {
			return dropLock(held, recv)
		}
	case *ast.DeferStmt:
		if recv, kind := lockCall(pass, s.Call); kind == "unlock" {
			// Deferred unlock: the lock stays held for the rest of the
			// function, so keep it in the set and keep checking.
			_ = recv
			return held
		}
	case *ast.BlockStmt:
		checkLockFlow(pass, s, held)
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			lockStep(pass, s.Init, held)
		}
		reportBlockingIn(pass, s.Cond, held)
		checkLockFlow(pass, s.Body, held)
		if s.Else != nil {
			lockStep(pass, s.Else, held)
		}
		return held
	case *ast.ForStmt:
		checkLockFlow(pass, s.Body, held)
		return held
	case *ast.RangeStmt:
		if len(held) > 0 {
			if t := pass.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					pass.Reportf(s.Pos(), "range over channel while %s is held blocks the critical section", held[0].expr)
				}
			}
		}
		reportBlockingIn(pass, s.X, held)
		checkLockFlow(pass, s.Body, held)
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		reportBlockingIn(pass, s, held)
		return held
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			pass.Reportf(s.Pos(), "select with no default while %s is held blocks the critical section (lock acquired at %s)",
				held[0].expr, pass.Fset.Position(held[0].pos))
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				checkLockFlowStmts(pass, cc.Body, held)
			}
		}
		return held
	}
	reportBlockingIn(pass, stmt, held)
	return held
}

func checkLockFlowStmts(pass *Pass, stmts []ast.Stmt, held []heldLock) {
	for _, s := range stmts {
		held = lockStep(pass, s, held)
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func dropLock(held []heldLock, recv string) []heldLock {
	out := make([]heldLock, 0, len(held))
	for _, h := range held {
		if h.expr != recv {
			out = append(out, h)
		}
	}
	return out
}

// lockCall classifies e as a Lock/RLock ("lock") or Unlock/RUnlock
// ("unlock") call on a sync mutex, returning the receiver text.
func lockCall(pass *Pass, e ast.Expr) (recv, kind string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	f, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", ""
	}
	switch f.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), "lock"
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), "unlock"
	}
	return "", ""
}

// reportBlockingIn scans one statement or expression subtree (without
// entering function literals) for blocking operations while held is
// non-empty.
func reportBlockingIn(pass *Pass, n ast.Node, held []heldLock) {
	if len(held) == 0 || n == nil {
		return
	}
	h := held[len(held)-1]
	lockNote := func() string {
		return h.expr + " is held (lock acquired at " + pass.Fset.Position(h.pos).String() + ")"
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(m) {
				pass.Reportf(m.Pos(), "select with no default while %s", lockNote())
			}
		case *ast.SendStmt:
			pass.Reportf(m.Pos(), "channel send while %s", lockNote())
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				pass.Reportf(m.Pos(), "channel receive while %s", lockNote())
			}
		case *ast.CallExpr:
			if why := blockingCallee(pass, m); why != "" {
				pass.Reportf(m.Pos(), "%s while %s", why, lockNote())
			}
		}
		return true
	})
}

// logIO names the segment-log methods, on a store.Log or the journal
// built on one, that do file I/O: Sync and Flush wait for an fsync,
// Close flushes, and the rest read segments or the directory. Write is
// absent on purpose: it only frames records into an in-memory buffer.
var logIO = map[string]bool{
	"Sync": true, "Flush": true, "Close": true, "Replay": true,
	"Scan": true, "ScanAll": true, "Segments": true, "Quarantined": true,
}

// blockingCallee describes why a call blocks, or returns "".
func blockingCallee(pass *Pass, call *ast.CallExpr) string {
	f := pass.calleeFunc(call)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	pkg, name := f.Pkg().Path(), f.Name()
	sig, _ := f.Type().(*types.Signature)
	recvType := ""
	if sig != nil && sig.Recv() != nil {
		recvType = sig.Recv().Type().String()
	}
	switch {
	case pkg == "time" && name == "Sleep":
		return "time.Sleep"
	case pkg == "net/http":
		return "net/http call " + name
	case pkg == "sync" && name == "Wait":
		return "sync " + recvShort(recvType) + ".Wait"
	case pkg == "os/exec" && (name == "Run" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
		return "exec.Cmd." + name
	case recvType == "*repro/internal/store.Store":
		return "store I/O " + name
	case (name == "Write" || name == "Sync") && onStoreFile(pass, call):
		// A segment append or its fsync: real file I/O.
		return "store I/O File." + name
	case pkg == "repro/internal/store" && (name == "Open" || name == "OpenFS" ||
		name == "WriteFileAtomic" || name == "WriteFileAtomicFS"):
		return "store I/O " + name
	case recvType == "*repro/internal/store.Log" && logIO[name],
		pkg == "repro/internal/store" && name == "OpenLog":
		return "log I/O " + name
	case recvType == "*repro/internal/service/journal.Journal" && logIO[name],
		pkg == "repro/internal/service/journal" && (name == "Open" || name == "OpenFS"):
		return "journal I/O " + name
	case strings.Contains(recvType, "repro/internal/resilience.Retry") && name == "Do":
		return "resilience retry loop"
	}
	return ""
}

// onStoreFile reports whether call is a method call on a store.File
// value. The check is on the operand's static type because File's
// Write is io.Writer's method.
func onStoreFile(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(sel.X)
	return t != nil && t.String() == "repro/internal/store.File"
}

func recvShort(t string) string {
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		return t[i+1:]
	}
	return t
}
