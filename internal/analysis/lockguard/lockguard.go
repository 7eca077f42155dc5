// Package lockguard defines an analyzer that keeps the service and cache
// packages' critical sections small and non-blocking.
//
// The daemon serializes sweep state behind sync.Mutex/RWMutex, and the
// cache behind a store lock plus per-key singleflight. Those locks sit on
// the experiment hot path: onCellDone fires from worker goroutines, so a
// handler that performs a blocking operation while holding a lock lets one
// slow HTTP client stall every in-flight sweep. The analyzer walks each
// function linearly, tracking which mutexes are held (X.Lock()/X.RLock()
// acquire, X.Unlock()/X.RUnlock() release, deferred unlocks keep the lock
// held to function end), and flags while any lock is held:
//
//   - channel sends and receives (unbounded block on a peer);
//   - calls that write an HTTP response: a method on an
//     http.ResponseWriter or any call passing one (writeJSON, writeErr,
//     fmt.Fprintf(w, …)) — network-paced, client-controlled;
//   - Cell.Run and RunCells (the executor the daemon reaches Cell.Run
//     through) — an entire simulation, or a sweep of them, under a
//     daemon lock.
//
// (*sync.Cond).Wait is exempt: it atomically releases the associated lock
// while blocked, which is the sanctioned way to wait under a mutex. The
// analyzer also flags value-receiver methods on lock-holding types beyond
// vet's copylocks: a method whose receiver copies a struct containing a
// sync.Mutex/RWMutex/Cond/WaitGroup/Once locks the copy, making the
// critical section a silent no-op.
//
// The walk is lexical, not a CFG: branch bodies are analyzed with a copy
// of the held set and conditional unlocks inside them do not release the
// outer view — false negatives are accepted to keep true positives
// trustworthy. Deliberate exceptions are annotated
// "//lint:allow lockguard -- <reason>".
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"ecnsharp/internal/analysis/lintallow"
)

var (
	lockPkgs string
	cellType string
)

// name is the analyzer name used in diagnostics and allow comments.
const name = "lockguard"

// Analyzer is the lockguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flags blocking operations (HTTP response writes, channel sends/receives, Cell.Run/RunCells) while a sync.Mutex/RWMutex is held, and value-receiver methods on lock-holding types",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Compile-time assertion that run has the go/analysis driver signature;
// a drift here would otherwise only surface when the Analyzer literal
// above is rebuilt.
var _ func(*analysis.Pass) (any, error) = run

func init() {
	lintallow.RegisterKnown(name)
	Analyzer.Flags.StringVar(&lockPkgs, "lockpkgs", "internal/service,internal/cache",
		"comma-separated import-path suffixes of packages whose critical sections are checked")
	Analyzer.Flags.StringVar(&cellType, "celltype", "ecnsharp/internal/experiments.Cell",
		"fully qualified name of the experiment cell type whose Run (and whose package's RunCells) must not execute under a lock")
}

func run(pass *analysis.Pass) (any, error) {
	if !lintallow.PkgAllowed(lockPkgs, pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allow := lintallow.NewIndex(pass.Fset, pass.Files)
	lk := &lockAnalyzer{pass: pass, allow: allow}
	lk.cellPkg, lk.cellName = splitQualified(cellType)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				lk.checkValueReceiver(n)
			}
			if n.Body != nil {
				lk.walkStmts(n.Body.List, map[string]bool{})
			}
		case *ast.FuncLit:
			// Closures get a fresh held set: they run when called, not
			// where they are written. (walkStmts does not descend into
			// FuncLits, so this Preorder visit is their only analysis.)
			lk.walkStmts(n.Body.List, map[string]bool{})
		}
	})

	lintallow.Finish(pass, allow, name)
	return nil, nil
}

// lockAnalyzer carries the per-package state of the lockguard pass.
type lockAnalyzer struct {
	pass     *analysis.Pass
	allow    *lintallow.Index
	cellPkg  string
	cellName string
}

// report emits a diagnostic unless an allow comment or test file covers it.
func (lk *lockAnalyzer) report(pos token.Pos, format string, args ...any) {
	if lintallow.InTestFile(lk.pass.Fset, pos) || lk.allow.Allowed(name, pos) {
		return
	}
	lk.pass.Reportf(pos, format, args...)
}

// heldNames renders the held set for diagnostics, deterministically.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// walkStmts walks a statement list linearly, mutating held as locks are
// acquired and released.
func (lk *lockAnalyzer) walkStmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		lk.walkStmt(s, held)
	}
}

// copyHeld clones the held set for a branch body.
func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// walkStmt advances the held set across one statement, flagging blocking
// operations executed while any lock is held.
func (lk *lockAnalyzer) walkStmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if mu, kind, ok := lk.lockCall(s.X); ok {
			switch kind {
			case "Lock", "RLock":
				held[mu] = true
			case "Unlock", "RUnlock":
				delete(held, mu)
			}
			return
		}
		lk.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to function end — exactly
		// the case the blocking checks below exist for — so it does not
		// release. Deferred blocking calls run after the handler body and
		// are not flagged.
		return
	case *ast.SendStmt:
		if len(held) > 0 {
			lk.report(s.Arrow, "channel send while %s is held; a full channel blocks every other critical section on the lock (or annotate //lint:allow lockguard -- <reason>)", heldNames(held))
		}
		lk.checkExpr(s.Chan, held)
		lk.checkExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lk.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			lk.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lk.checkExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lk.walkStmt(s.Init, held)
		}
		lk.checkExpr(s.Cond, held)
		lk.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			lk.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lk.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			lk.checkExpr(s.Cond, held)
		}
		lk.walkStmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		lk.checkExpr(s.X, held)
		lk.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lk.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			lk.checkExpr(s.Tag, held)
		}
		lk.walkClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lk.walkStmt(s.Init, held)
		}
		lk.walkClauses(s.Body, held)
	case *ast.SelectStmt:
		// The comm operations themselves are how select blocks by design;
		// the bodies still must not block further.
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lk.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		lk.walkStmts(s.List, copyHeld(held))
	case *ast.LabeledStmt:
		lk.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		// The spawned goroutine does not run under this lock; its FuncLit
		// body is analyzed separately with a fresh held set.
		return
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lk.checkExpr(v, held)
					}
				}
			}
		}
	}
}

// walkClauses walks switch case bodies, each with a copy of the held set.
func (lk *lockAnalyzer) walkClauses(body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			lk.walkStmts(cc.Body, copyHeld(held))
		}
	}
}

// lockCall recognizes X.Lock/RLock/Unlock/RUnlock on a sync mutex,
// returning the rendered mutex expression and the method name.
func (lk *lockAnalyzer) lockCall(e ast.Expr) (mu, kind string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !isSyncType(lk.pass.TypesInfo.TypeOf(sel.X), "Mutex", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// checkExpr flags blocking operations inside e while locks are held.
// FuncLits are skipped (analyzed separately with a fresh held set).
func (lk *lockAnalyzer) checkExpr(e ast.Expr, held map[string]bool) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				lk.report(n.OpPos, "channel receive while %s is held; the sender paces the critical section (or annotate //lint:allow lockguard -- <reason>)", heldNames(held))
			}
		case *ast.CallExpr:
			lk.checkCall(n, held)
		}
		return true
	})
}

// checkCall flags calls that block while a lock is held: HTTP response
// writes, Cell.Run and RunCells. (*sync.Cond).Wait is exempt — it releases
// the lock while blocked.
func (lk *lockAnalyzer) checkCall(call *ast.CallExpr, held map[string]bool) {
	callee, _ := typeutil.Callee(lk.pass.TypesInfo, call).(*types.Func)
	// RunCells: every simulation of a sweep under a daemon lock.
	if callee != nil && callee.Name() == "RunCells" && callee.Pkg() != nil && callee.Pkg().Path() == lk.cellPkg {
		lk.report(call.Pos(), "RunCells executes whole simulations while %s is held (or annotate //lint:allow lockguard -- <reason>)",
			heldNames(held))
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Wait" && isSyncType(lk.pass.TypesInfo.TypeOf(sel.X), "Cond") {
			return
		}
		// A method on an http.ResponseWriter (w.Write, w.WriteHeader).
		if isResponseWriter(lk.pass.TypesInfo.TypeOf(sel.X)) {
			lk.report(call.Pos(), "HTTP response write (%s.%s) while %s is held; a slow client stalls every critical section on the lock — snapshot under the lock, write after (or annotate //lint:allow lockguard -- <reason>)",
				types.ExprString(sel.X), sel.Sel.Name, heldNames(held))
			return
		}
		// Cell.Run: an entire simulation under a daemon lock.
		if sel.Sel.Name == "Run" && lk.isCellType(lk.pass.TypesInfo.TypeOf(sel.X)) {
			lk.report(call.Pos(), "%s.Run executes a whole simulation while %s is held (or annotate //lint:allow lockguard -- <reason>)",
				lk.cellName, heldNames(held))
			return
		}
	}
	// Any call passing an http.ResponseWriter writes the response
	// (writeJSON(w, …), fmt.Fprintf(w, …), json.NewEncoder(w), …).
	for _, arg := range call.Args {
		if isResponseWriter(lk.pass.TypesInfo.TypeOf(arg)) {
			f := "a function"
			if callee != nil {
				f = callee.Name()
			}
			lk.report(call.Pos(), "HTTP response write (%s receives the ResponseWriter) while %s is held; a slow client stalls every critical section on the lock — snapshot under the lock, write after (or annotate //lint:allow lockguard -- <reason>)",
				f, heldNames(held))
			return
		}
	}
}

// checkValueReceiver flags value-receiver methods on types that contain a
// sync primitive: the receiver copy makes locking a no-op.
func (lk *lockAnalyzer) checkValueReceiver(fd *ast.FuncDecl) {
	if len(fd.Recv.List) != 1 {
		return
	}
	recv := fd.Recv.List[0]
	t := lk.pass.TypesInfo.TypeOf(recv.Type)
	if t == nil {
		return
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return
	}
	if prim := containsSyncPrimitive(t, map[types.Type]bool{}); prim != "" {
		lk.report(fd.Name.Pos(),
			"method %s has a value receiver, but its type contains a sync.%s: each call locks a copy, so the critical section is a no-op — use a pointer receiver (or annotate //lint:allow lockguard -- <reason>)",
			fd.Name.Name, prim)
	}
}

// containsSyncPrimitive reports which sync primitive (if any) the type
// transitively contains by value.
func containsSyncPrimitive(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if isSyncType(t, "Mutex", "RWMutex", "Cond", "WaitGroup", "Once") {
		named := t
		if n, ok := named.(*types.Named); ok {
			return n.Obj().Name()
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if prim := containsSyncPrimitive(u.Field(i).Type(), seen); prim != "" {
				return prim
			}
		}
	case *types.Array:
		return containsSyncPrimitive(u.Elem(), seen)
	}
	return ""
}

// isSyncType reports whether t (or what it points to) is one of the named
// types from package sync.
func isSyncType(t types.Type, wantNames ...string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	for _, w := range wantNames {
		if obj.Name() == w {
			return true
		}
	}
	return false
}

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

// isCellType reports whether t (or what it points to) is the configured
// experiment cell type.
func (lk *lockAnalyzer) isCellType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == lk.cellPkg && obj.Name() == lk.cellName
}

// splitQualified splits "pkg/path.Name" at the last dot.
func splitQualified(q string) (pkg, name string) {
	i := strings.LastIndex(q, ".")
	if i < 0 {
		return "", q
	}
	return q[:i], q[i+1:]
}
