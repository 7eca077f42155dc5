package experiments

import (
	"context"
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
	// Each variant runs its incast and fairness checks as one harness job.
	type probResult struct {
		standing float64
		drops    int64
		qp99     float64
		jain     float64
		sum      float64
	}
	res := runJobs(sc, axis(variants, func(v Scheme) string { return "prob " + v.Label }),
		func(ctx context.Context, i int) (probResult, error) {
			incast, err := probIncast(ctx, variants[i], sc)
			if err != nil {
				return probResult{}, err
			}
			jain, sum, err := probFairness(ctx, variants[i])
			return probResult{incast.AvgQueuePkts, incast.Drops, incast.Stats.QueryP99, jain, sum}, err
		})
	for i, o := range res {
		t.AddRow(variants[i].Label, f1(o.standing), fmt.Sprintf("%d", o.drops), f1(o.qp99),
			f3(o.jain), f2(o.sum))
	}
	t.AddNote("both variants should be drop-free with a low standing queue; probabilistic marking must not hurt fairness")
	return t
}

// probIncast reruns the Figure-10 scenario under scheme s.
func probIncast(ctx context.Context, s Scheme, sc Scale) (RunResult, error) {
	cfg := incastCfg(s, 100, sc.FlowCount, true)
	cfg.Seed = sc.Seeds[0]
	cfg.SampleEnd = incastQueryAt // standing queue only
	return RunContext(ctx, cfg)
}

// probFairness runs four synchronized long flows into one port and reports
// Jain's index of their goodput over the second half, plus the aggregate.
func probFairness(ctx context.Context, s Scheme) (jain, sumGbps float64, err error) {
	const horizon = 100 * sim.Millisecond
	rtt := LeafSpineRTT()
	flows := make([]workload.FlowSpec, 4)
	for i := range flows {
		flows[i] = workload.LongFlow(i, len(flows), 0)
	}
	r, err := RunContext(ctx, RunConfig{
		Seed:           17,
		Topo:           TopoStar,
		Hosts:          len(flows) + 1,
		Scheme:         s,
		RTT:            &rtt,
		Flows:          flows,
		SampleQueueOf:  len(flows),
		SampleStart:    horizon / 2,
		SampleEnd:      horizon,
		SampleInterval: 5 * sim.Millisecond,
		Deadline:       horizon,
	})
	if err != nil {
		return 0, 0, err
	}
	jain, sumGbps = longFlowFairness(r)
	return jain, sumGbps, nil
}

// longFlowFairness returns Jain's fairness index of the long flows' mean
// goodputs over r's sampling window ((Σg)² / (n·Σg²), 0 when every flow is
// idle) and their sum in Gbps.
func longFlowFairness(r RunResult) (jain, sum float64) {
	var sumSq float64
	for _, series := range r.Goodput {
		g := metrics.MeanGbps(series)
		sum += g
		sumSq += g * g
	}
	if sumSq == 0 {
		return 0, sum
	}
	return sum * sum / (float64(len(r.Goodput)) * sumSq), sum
}
