// Package wallclock defines an analyzer that flags wall-clock time
// sources (time.Now, time.Since, time.Sleep, timers and tickers) in
// non-test code.
//
// The simulator is a deterministic discrete-event system: all time must be
// derived from the virtual clock (sim.Engine.Now), never from the host's.
// A single time.Now on a simulation path makes a run a function of the
// machine it ran on, which silently breaks the byte-identical-output
// contract of the experiment harness and the trace layer.
//
// Legitimate uses — the harness measuring real job latency, benchmark
// binaries reporting elapsed wall time — carry a "//lint:allow wallclock"
// annotation stating why (see package lintallow), or live in a package
// listed in the -allowpkgs flag.
//
// The sharded engine (sim.ShardedEngine) raises the stakes: its domain
// workers run concurrently, so a wall-clock read on a simulation path
// would not just tie the run to one machine but to one *interleaving*,
// making reruns of the same (config, seed) diverge between worker counts.
// Shard worker callbacks therefore get no allowlist entries at all —
// anything a worker executes must derive time from its domain engine's
// virtual clock; only coordinator-side measurement code (the harness's
// per-job latency stopwatch) may be annotated.
package wallclock

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"ecnsharp/internal/analysis/lintallow"
)

// banned is the set of package time functions that read or act on the
// host's clock. Types (time.Duration, time.Time) and pure conversions
// (time.ParseDuration, d.Seconds()) are fine.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

var allowPkgs string

// name is the analyzer name used in diagnostics and allow comments.
const name = "wallclock"

// Analyzer is the wallclock analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flags wall-clock time sources (time.Now/Since/Sleep/timers) in simulation code; derive time from sim.Engine.Now instead, or annotate the line with //lint:allow wallclock -- <reason>",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() {
	lintallow.RegisterKnown(name)
	Analyzer.Flags.StringVar(&allowPkgs, "allowpkgs", "",
		"comma-separated import-path suffixes of packages exempt from the wallclock rule")
}

func run(pass *analysis.Pass) (any, error) {
	if lintallow.PkgAllowed(allowPkgs, pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allow := lintallow.NewIndex(pass.Fset, pass.Files)

	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // method like t.Sub — not a clock read
		}
		if lintallow.InTestFile(pass.Fset, sel.Pos()) ||
			allow.Allowed(name, sel.Pos()) {
			return
		}
		pass.Reportf(sel.Pos(),
			"time.%s reads the wall clock; simulation code must use the sim.Engine virtual clock (or annotate //lint:allow wallclock -- <reason>)",
			fn.Name())
	})
	lintallow.Finish(pass, allow, name)
	return nil, nil
}
