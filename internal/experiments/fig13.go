package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ecnsharp/internal/asciiplot"
	"ecnsharp/internal/dist"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/workload"
)

// Figure 13 setup (§5.4 "Packet scheduler"): DWRR with 3 queues weighted
// 2:1:1. Three long-lived flows start staggered, each classified into its
// own queue; short probe flows (3–60 KB) from the remaining senders sample
// queueing delay across all classes. ECN♯ must preserve the 2:1:1 goodput
// split while beating TCN on short-flow FCT.
const (
	dwrrPhase    = 50 * sim.Millisecond // time between long-flow starts
	dwrrDeadline = 3 * dwrrPhase        // measurement horizon
)

// Fig13Result carries the structured outcome for tests.
type Fig13Result struct {
	// GoodputGbps[i] is long flow i's goodput during the final phase when
	// all three queues are active.
	GoodputGbps [3]float64
	// Series[i] is the full goodput time series of flow i.
	Series [3][]metrics.GoodputPoint
	// ShortAvgFCT is the mean short-probe FCT in µs; ShortFCTs holds the
	// samples for the CDF (Figure 13b).
	ShortAvgFCT float64
	ShortFCTs   []float64
}

// fig13Cfg is the DWRR scenario on the 8-host star: senders 0–2 each
// carry one long flow in their own class, started one phase apart; short
// probes (uniform 3–60 KB, random class, Poisson at light load so they
// sample delay without disturbing the shares) come from senders 3–6.
func fig13Cfg(s Scheme, seed int64, probes int) RunConfig {
	const receiver = TestbedHosts - 1
	rtt := LeafSpineRTT()
	return RunConfig{
		Seed:    seed,
		Topo:    TopoStar,
		Hosts:   TestbedHosts,
		Weights: []int{2, 1, 1},
		Scheme:  s,
		RTT:     &rtt,
		FlowGen: func(rng *rand.Rand) []workload.FlowSpec {
			var flows []workload.FlowSpec
			for i := 0; i < 3; i++ {
				f := workload.LongFlow(i, receiver, sim.Time(i)*dwrrPhase)
				f.Class = i
				flows = append(flows, f)
			}
			start := sim.Time(0)
			gap := float64(dwrrDeadline) / float64(probes+1)
			for k := 0; k < probes; k++ {
				start += sim.Time(gap * (0.5 + rng.Float64()))
				if start >= dwrrDeadline-5*sim.Millisecond {
					break
				}
				flows = append(flows, workload.FlowSpec{
					Size:  3_000 + rng.Int63n(57_001),
					Src:   3 + rng.Intn(4),
					Dst:   receiver,
					Start: start,
					Class: rng.Intn(3),
				})
			}
			return flows
		},
		SampleQueueOf:  receiver,
		SampleEnd:      dwrrDeadline,
		SampleInterval: 5 * sim.Millisecond,
		Deadline:       dwrrDeadline,
	}
}

// runFig13 executes the DWRR scenario under the given scheme.
func runFig13(ctx context.Context, s Scheme, seed int64, probes int) (Fig13Result, error) {
	r, err := RunContext(ctx, fig13Cfg(s, seed, probes))
	if err != nil {
		return Fig13Result{}, err
	}
	var res Fig13Result
	for i := range res.Series {
		res.Series[i] = r.Goodput[i]
		// Goodput during the final phase, when all three queues are active.
		final := r.Goodput[i]
		for len(final) > 0 && final[0].At <= 2*dwrrPhase {
			final = final[1:]
		}
		res.GoodputGbps[i] = metrics.MeanGbps(final)
	}
	res.ShortAvgFCT = r.Stats.ShortAvg
	res.ShortFCTs = r.Collector.ShortFCTsMicros()
	return res, nil
}

// Fig13 reproduces Figure 13: (a) per-flow goodput under ECN♯ with DWRR
// 2:1:1 — the scheduling policy must be preserved — and (b) short-flow FCT
// of ECN♯ vs TCN (threshold 150 µs per §5.4).
func Fig13(sc Scale) ([]*Table, Fig13Result, Fig13Result) {
	rtt := LeafSpineRTT()
	_, _, sharpScheme := DeriveSchemes(rtt, topology.TenGbps)
	tcn := TCNScheme(150 * sim.Microsecond)

	probes := sc.FlowCount / 2
	if probes < 40 {
		probes = 40
	}
	// The two scheme runs are independent; fan them out on the harness.
	schemes := []Scheme{sharpScheme, tcn}
	res := runJobs(sc, axis(schemes, func(s Scheme) string { return "fig13 " + s.Label }),
		func(ctx context.Context, i int) (Fig13Result, error) {
			return runFig13(ctx, schemes[i], sc.Seeds[0], probes)
		})
	sharp, tcnRes := res[0], res[1]

	ta := &Table{
		ID:      "fig13a",
		Title:   "[Simulation] ECN# with DWRR 2:1:1 — long-flow goodput by phase (Fig 13a)",
		Columns: []string{"time(ms)", "flow1(Gbps)", "flow2(Gbps)", "flow3(Gbps)"},
	}
	// Emit the union of series timestamps (all meters share a sampling grid).
	for idx := range sharp.Series[0] {
		row := []string{f1(sharp.Series[0][idx].At.Seconds() * 1000)}
		for f := 0; f < 3; f++ {
			if idx < len(sharp.Series[f]) {
				row = append(row, f2(sharp.Series[f][idx].Gbps))
			} else {
				row = append(row, "0.00")
			}
		}
		ta.AddRow(row...)
	}
	ta.AddNote("final-phase goodputs: %.2f / %.2f / %.2f Gbps (paper: ~4.82/2.40/2.40)",
		sharp.GoodputGbps[0], sharp.GoodputGbps[1], sharp.GoodputGbps[2])
	var goodputSeries []asciiplot.Series
	for i := 0; i < 3; i++ {
		gs := asciiplot.Series{Name: fmt.Sprintf("flow%d", i+1)}
		for _, p := range sharp.Series[i] {
			gs.X = append(gs.X, p.At.Seconds()*1000)
			gs.Y = append(gs.Y, p.Gbps)
		}
		goodputSeries = append(goodputSeries, gs)
	}
	ta.Raw = asciiplot.Render(goodputSeries, asciiplot.Options{
		Width: 72, Height: 12, XLabel: "ms", YLabel: "goodput (Gbps)",
	})

	tb := &Table{
		ID:      "fig13b",
		Title:   "[Simulation] short-flow FCT with DWRR: ECN# vs TCN (Fig 13b)",
		Columns: []string{"scheme", "avg FCT(us)", "p50(us)", "p90(us)", "p99(us)", "samples"},
	}
	var cdfSeries []asciiplot.Series
	for i, r := range res {
		tb.AddRow(schemes[i].Label, f1(r.ShortAvgFCT),
			f1(dist.Percentile(r.ShortFCTs, 50)),
			f1(dist.Percentile(r.ShortFCTs, 90)),
			f1(dist.Percentile(r.ShortFCTs, 99)),
			fmt.Sprintf("%d", len(r.ShortFCTs)))
		cs := asciiplot.Series{Name: schemes[i].Label}
		for _, p := range dist.CDF(r.ShortFCTs) {
			cs.X = append(cs.X, p.Value)
			cs.Y = append(cs.Y, p.Prob)
		}
		cdfSeries = append(cdfSeries, cs)
	}
	tb.AddNote("paper: ECN# 19.6%% better average short-flow FCT than TCN (2341 vs 2913 us)")
	tb.Raw = asciiplot.Render(cdfSeries, asciiplot.Options{
		Width: 72, Height: 10, XLabel: "short-flow FCT (us)", YLabel: "CDF",
	})
	return []*Table{ta, tb}, sharp, tcnRes
}
