package experiments

import (
	"fmt"

	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/workload"
)

// ProbExtension evaluates the §3.5 sketch: replacing ECN♯'s cut-off
// instantaneous marking with a DCQCN-style probabilistic ramp while
// keeping the persistent-congestion marking. Two checks:
//
//  1. The incast scenario of Figure 10: the variant must retain ECN♯'s
//     burst tolerance (no drops) and standing-queue control.
//  2. Long-flow fairness: with four competing long flows, probabilistic
//     marking desynchronizes window cuts, so the Jain fairness index of
//     per-flow goodput should be at least as good as cut-off marking.
func ProbExtension(sc Scale) *Table {
	rtt := LeafSpineRTT()
	base := core.Params{
		InsTarget:   rtt.Percentile(90),
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}

	t := &Table{
		ID:    "prob",
		Title: "§3.5 extension: cut-off vs probabilistic instantaneous marking",
		Columns: []string{"variant", "standing queue(pkts)", "drops",
			"query p99(us)", "jain fairness", "goodput sum(Gbps)"},
	}
	variants := []Scheme{
		{Kind: SchemeECNSharp, Label: "ECN# (cut-off)", Params: base},
		{Kind: SchemeECNSharpProb, Label: "ECN# (probabilistic)", Params: base,
			Ramp: Ramp{TMin: base.InsTarget / 2, Pmax: 0.8}},
	}
	// The incast check reruns the Figure-10 scenario on the first seed,
	// sampling the standing queue only; the fairness check runs four
	// synchronized long flows into one port on its own fixed seed.
	labels := axis(variants, schemeLabel)
	incast := newGrid(labels, []string{"incast"}, func(r, _ int) RunConfig {
		cfg := incastCfg(variants[r], 100, sc.FlowCount, true)
		cfg.SampleEnd = incastQueryAt
		return cfg
	})
	fair := newGrid(labels, []string{"fairness"}, func(r, _ int) RunConfig {
		return probFairnessCfg(variants[r])
	})
	runGrids(sc.firstSeed(), incast)
	fixed := sc
	fixed.Seeds = []int64{17}
	runGrids(fixed, fair)
	for r, label := range labels {
		in := incast.first(r, 0)
		jain, sum := longFlowFairness(fair.first(r, 0))
		t.AddRow(label, f1(in.AvgQueuePkts), fmt.Sprintf("%d", in.Drops), f1(in.Stats.QueryP99),
			f3(jain), f2(sum))
	}
	t.AddNote("both variants should be drop-free with a low standing queue; probabilistic marking must not hurt fairness")
	return t
}

// probFairnessCfg is four synchronized long flows into one port under
// scheme s, their goodput sampled over the second half of 100 ms.
func probFairnessCfg(s Scheme) RunConfig {
	const horizon = 100 * sim.Millisecond
	flows := make([]workload.FlowSpec, 4)
	for i := range flows {
		flows[i] = workload.LongFlow(i, len(flows), 0)
	}
	return RunConfig{
		Topo:           TopoStar,
		Hosts:          len(flows) + 1,
		Scheme:         s,
		RTT:            LeafSpineRTT(),
		Flows:          flows,
		SampleQueueOf:  len(flows),
		SampleStart:    horizon / 2,
		SampleEnd:      horizon,
		SampleInterval: 5 * sim.Millisecond,
		Deadline:       horizon,
	}
}

// longFlowFairness returns Jain's fairness index of the long flows' mean
// goodputs over r's sampling window ((Σg)² / (n·Σg²), 0 when every flow is
// idle) and their sum in Gbps.
func longFlowFairness(r RunResult) (jain, sum float64) {
	var sumSq float64
	for _, series := range r.Goodput {
		g := metrics.MeanGbps(series)
		sum += g
		sumSq += float64(g * g)
	}
	if sumSq == 0 {
		return 0, sum
	}
	return sum * sum / (float64(len(r.Goodput)) * sumSq), sum
}
