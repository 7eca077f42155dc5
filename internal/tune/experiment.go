package tune

import (
	"context"
	"fmt"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/metrics"
)

// Fig6TuneSpecJSON is the committed tune spec behind the tuned-vs-default
// experiment: the fig6 testbed cell (8-host star, web-search flows, 70 µs
// base RTT with 3× variation) at 70% load, two seeds pooled, hill-climbed
// over the ECN♯ box from seed 7. The result — including the winning
// parameter vector — is reproducible from exactly this document; change
// any byte and you are running a different (still deterministic)
// experiment. EXPERIMENTS.md records the expected table.
const Fig6TuneSpecJSON = `{
	"sweep": {"topo": "star", "scheme": "ecnsharp", "workload": "websearch",
	          "loads": [0.7], "flows": 300, "seeds": [1, 2],
	          "rtt_min_us": 70, "rtt_variation": 3},
	"searcher": "hillclimb",
	"budget": 12,
	"restarts": 2,
	"seed": 7,
	"objective": "short-p99"
}`

func init() {
	experiments.Register(experiments.Experiment{
		ID:    "tuned-vs-default",
		Brief: "auto-tuned ECN# vs the paper's hand-derived thresholds on the fig6 RTT-variation cell",
		Run:   TunedVsDefault,
	})
}

// TunedVsDefault runs the committed Fig6TuneSpecJSON tune and emits the
// figure-style comparison: the paper's hand-derived ECN♯ parameters
// against the hill-climber's winner, both evaluated on the same pooled
// multi-seed cell grid. Scale contributes only wall-clock knobs
// (parallelism, timeout); the simulated bytes come from the committed
// spec and seed alone.
func TunedVsDefault(sc experiments.Scale) []*experiments.Table {
	spec, err := ParseSpec([]byte(Fig6TuneSpecJSON))
	if err != nil {
		panic(fmt.Sprintf("tune: committed spec invalid: %v", err))
	}
	res, err := Run(context.Background(), spec, Options{Parallel: sc.Parallel, Timeout: sc.Timeout})
	if err != nil {
		panic(fmt.Sprintf("tune: tuned-vs-default: %v", err))
	}

	tb := &experiments.Table{
		ID:    "tuned-vs-default",
		Title: fmt.Sprintf("auto-tuned vs hand-derived ECN# (fig6 cell: star/websearch, load %g, %g× RTT variation)", spec.Sweep.Loads[0], spec.Sweep.RTTVariation),
		Columns: []string{"config", "ins_target µs", "pst_target µs", "pst_interval µs",
			"short p99 µs", "short avg µs", "overall avg µs"},
	}
	defStats := pooledStats(spec, sc, spec.Space.DefaultVector())
	bestStats := pooledStats(spec, sc, res.Best.Vector)
	addRow := func(label string, v []float64, s metrics.FCTStats) {
		tb.AddRow(label,
			fmt.Sprintf("%.1f", v[0]), fmt.Sprintf("%.1f", min(v[1], v[0])), fmt.Sprintf("%.1f", v[2]),
			fmt.Sprintf("%.1f", s.ShortP99), fmt.Sprintf("%.1f", s.ShortAvg), fmt.Sprintf("%.1f", s.OverallAvg))
	}
	addRow("ECN# paper-default (§3.4 derivation)", spec.Space.DefaultVector(), defStats)
	addRow("ECN# auto-tuned (hill climb)", res.Best.Vector, bestStats)
	tb.AddNote("objective %s: default %.1f -> tuned %.1f (%.2fx better) after %d evaluations (%d rounds, budget %d, spec seed %d)",
		spec.Objective, res.Default.Score, res.Best.Score, res.Improvement, len(res.Evals), res.Rounds, spec.Budget, spec.Seed)
	tb.AddNote("reproducible from the committed spec: tune.Fig6TuneSpecJSON (ecnsim -tune, see EXPERIMENTS.md)")
	return []*experiments.Table{tb}
}

// pooledStats re-evaluates one candidate on the spec's cell grid and
// returns the pooled multi-seed statistics of its (single) load point — the
// same numbers the tuner scored, here rendered as the full FCT breakdown
// for the table.
func pooledStats(spec *Spec, sc experiments.Scale, vec []float64) metrics.FCTStats {
	cells := withTuned(spec.Sweep.Cells(), spec.Space.ToTuned(vec))
	outcomes, _ := experiments.RunCells(context.Background(), cells, nil, nil, nil, nil,
		harness.Options{Parallel: sc.Parallel, Timeout: sc.Timeout})
	results := make([]experiments.CellResult, len(outcomes))
	for i, out := range outcomes {
		if out.Err != nil {
			panic(fmt.Sprintf("tune: pooled stats: %v", out.Err))
		}
		results[i] = out.Result
	}
	return spec.Sweep.Pool(results)[0].Stats
}
