// Package shardsafe defines an analyzer that guards the sharded engine's
// isolation contract: code running inside a ShardedEngine worker may only
// touch its own domain's state, with Handoff.Send as the sole sanctioned
// cross-domain path.
//
// Worker-owned state is legal too, when no two workers reach it: the
// domains of one worker group (ShardedEngine.Group) never run at the same
// time, at any GOMAXPROCS and in the same order on every machine, so state
// only one group's domains share — topology's packet free list per group —
// is as race-free and as deterministic as one domain's. It is wired
// before the run, like a handoff, and no rule below needs an exception
// for it.
//
// The conservative-time engine (sim.ShardedEngine) gets byte-determinism
// by construction — each domain worker executes its own Engine's events in
// timestamp order, and anything crossing domains is timestamped at least
// a lookahead window into the future. That construction collapses the
// moment worker-reachable code shares state out of band: a package-level
// counter bumped from two workers, or a callback scheduled on one domain
// engine that pokes another's, reintroduces exactly the interleaving
// dependence TestShardedByteIdentical can only spot-check. The analyzer
// enforces four rules over the packages in -shardpkgs (the packages whose
// code runs inside domain workers):
//
//   - no function may write a package-level variable outside init or the
//     declaration itself: worker goroutines execute these functions
//     concurrently, so post-init global writes are cross-domain races;
//   - package-level variables that do have post-init writes are mutable
//     shared state, so their reads are flagged too (reads of init-only,
//     effectively-immutable globals are fine);
//   - a closure must not capture the *ShardedEngine coordinator: domain
//     code addresses its own *Engine, and reaching back into the
//     coordinator (its buffers, other domains via Domain(i)) bypasses
//     the handoff discipline. The engine package itself is exempt — the
//     coordinator's own worker machinery legitimately closes over it;
//   - a callback scheduled on one engine (Schedule/ScheduleArg/After/
//     AfterArg on engine E) must not mention a different Engine value:
//     the callback will run on E's domain worker, and touching another
//     domain's engine from there is the cross-domain race the Handoff
//     type exists to prevent.
//
// Deliberate exceptions — coordinator-side wiring that provably runs
// before workers start, for instance — are annotated
// "//lint:allow shardsafe -- <reason>".
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"ecnsharp/internal/analysis/lintallow"
)

var (
	shardPkgs  string
	engineType string
	shardType  string
)

// name is the analyzer name used in diagnostics and allow comments.
const name = "shardsafe"

// Analyzer is the shardsafe analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flags shared mutable package state and cross-domain Engine/ShardedEngine captures in code reachable from ShardedEngine workers; cross-domain traffic must use Handoff.Send",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Compile-time assertion that run has the go/analysis driver signature;
// a drift here would otherwise only surface when the Analyzer literal
// above is rebuilt.
var _ func(*analysis.Pass) (any, error) = run

// scheduleMethods are the Engine methods whose function arguments execute
// on that engine's domain worker.
var scheduleMethods = map[string]bool{
	"Schedule":    true,
	"ScheduleArg": true,
	"After":       true,
	"AfterArg":    true,
}

func init() {
	lintallow.RegisterKnown(name)
	Analyzer.Flags.StringVar(&shardPkgs, "shardpkgs",
		"internal/sim,internal/device,internal/queue,internal/transport,internal/aqm,internal/topology,internal/fault",
		"comma-separated import-path suffixes of packages whose code runs inside ShardedEngine domain workers")
	Analyzer.Flags.StringVar(&engineType, "enginetype", "ecnsharp/internal/sim.Engine",
		"fully qualified name of the per-domain engine type")
	Analyzer.Flags.StringVar(&shardType, "shardtype", "ecnsharp/internal/sim.ShardedEngine",
		"fully qualified name of the sharded coordinator type")
}

func run(pass *analysis.Pass) (any, error) {
	if !lintallow.PkgAllowed(shardPkgs, pass.Pkg.Path()) {
		return nil, nil // not a worker-reachable package
	}
	enginePkg, engineName := splitQualified(engineType)
	_, shardName := splitQualified(shardType)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allow := lintallow.NewIndex(pass.Fset, pass.Files)

	isNamed := func(t types.Type, wantName string) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == enginePkg && obj.Name() == wantName
	}
	skip := func(pos token.Pos) bool {
		return lintallow.InTestFile(pass.Fset, pos) || allow.Allowed(name, pos)
	}

	// globalWrite is one post-init store to a package-level variable.
	type globalWrite struct {
		pos token.Pos
		id  *ast.Ident // the LHS root identifier, excluded from the read scan
		obj *types.Var
	}
	var writes []globalWrite
	// mutable is the set of this package's globals with post-init writes.
	mutable := map[*types.Var]bool{}
	// writeRoots marks identifiers already reported as write targets.
	writeRoots := map[*ast.Ident]bool{}

	// pkgLevelVar resolves the root of an assignment target (through
	// selectors, indexes and derefs) to a package-level variable, if any.
	pkgLevelVar := func(e ast.Expr) (*ast.Ident, *types.Var) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				id, ok := e.(*ast.Ident)
				if !ok || id.Name == "_" {
					return nil, nil
				}
				v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
				if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
					return nil, nil
				}
				return id, v
			}
		}
	}

	// Collect post-init global writes. inspector.WithStack visits every
	// function body including closures; writes lexically inside a
	// package-level init func (or a package-level var declaration, which
	// is not an AssignStmt at all) are initialization and exempt.
	ins.WithStack([]ast.Node{(*ast.AssignStmt)(nil), (*ast.IncDecStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || inInit(stack) {
			return true
		}
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // := always creates locals
			}
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		}
		for _, lhs := range targets {
			id, v := pkgLevelVar(lhs)
			if v == nil {
				continue
			}
			if lintallow.InTestFile(pass.Fset, lhs.Pos()) {
				continue // test files don't run inside workers
			}
			writeRoots[id] = true
			writes = append(writes, globalWrite{lhs.Pos(), id, v})
			if v.Pkg() == pass.Pkg {
				mutable[v] = true
			}
		}
		return true
	})

	for _, w := range writes {
		if allow.Allowed(name, w.pos) {
			continue
		}
		pass.Reportf(w.pos,
			"write to package-level variable %q from worker-reachable code; ShardedEngine domain workers run these functions concurrently — move the state into the domain's own structures or hand it off (or annotate //lint:allow shardsafe -- <reason>)",
			w.obj.Name())
	}

	// Reads of mutable globals: every use of a variable something mutates
	// post-init, except the write sites themselves (already reported).
	if len(mutable) > 0 {
		ins.Preorder([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node) {
			id := n.(*ast.Ident)
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || !mutable[v] || writeRoots[id] {
				return
			}
			if skip(id.Pos()) {
				return
			}
			pass.Reportf(id.Pos(),
				"read of package-level variable %q, which is written post-init; from ShardedEngine workers this is a data race and an interleaving dependence (or annotate //lint:allow shardsafe -- <reason>)",
				v.Name())
		})
	}

	// Coordinator captures: *ShardedEngine mentioned inside any closure.
	// The engine package itself is exempt — its worker machinery (and the
	// panic-recovery closure inside workerLoop) legitimately closes over
	// the coordinator.
	if pass.Pkg.Path() != enginePkg {
		ins.Preorder([]ast.Node{(*ast.FuncLit)(nil)}, func(n ast.Node) {
			lit := n.(*ast.FuncLit)
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				e, ok := m.(ast.Expr)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(e)
				if t == nil || !isNamed(t, shardName) {
					return true
				}
				if !skip(e.Pos()) {
					pass.Reportf(e.Pos(),
						"closure captures the %s coordinator; domain code must address only its own Engine and use Handoff.Send across domains (or annotate //lint:allow shardsafe -- <reason>)",
						shardName)
				}
				return false // report the outermost coordinator-typed expression only
			})
		})
	}

	// Cross-domain engine use inside scheduled callbacks: a FuncLit passed
	// to E.Schedule/ScheduleArg/After/AfterArg runs on E's domain worker,
	// so any other Engine value mentioned in its body crosses domains.
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !scheduleMethods[sel.Sel.Name] {
			return
		}
		recvType := pass.TypesInfo.TypeOf(sel.X)
		if recvType == nil || !isNamed(recvType, engineName) {
			return
		}
		recvText := types.ExprString(sel.X)
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				e, ok := m.(ast.Expr)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(e)
				if t == nil || !isNamed(t, engineName) {
					return true
				}
				if types.ExprString(e) == recvText {
					return false // the scheduling engine itself: same domain
				}
				if !skip(e.Pos()) {
					pass.Reportf(e.Pos(),
						"callback scheduled on %s touches a different Engine (%s); it will run on %s's domain worker, so cross-domain traffic must go through a Handoff (or annotate //lint:allow shardsafe -- <reason>)",
						recvText, types.ExprString(e), recvText)
				}
				return false
			})
		}
	})

	lintallow.Finish(pass, allow, name)
	return nil, nil
}

// inInit reports whether the node stack passes through a package-level
// init function declaration.
func inInit(stack []ast.Node) bool {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd.Recv == nil && fd.Name.Name == "init"
		}
	}
	return false
}

// splitQualified splits "pkg/path.Name" at the last dot.
func splitQualified(q string) (pkg, name string) {
	i := strings.LastIndex(q, ".")
	if i < 0 {
		return "", q
	}
	return q[:i], q[i+1:]
}
