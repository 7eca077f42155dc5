package experiments

import (
	"fmt"

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
	dwrrPhase     = 50 * sim.Millisecond // time between long-flow starts
	dwrrDeadline  = 3 * dwrrPhase        // measurement horizon
	dwrrProbeFrom = 3                    // first probe sender; 0–2 carry the long flows
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
func fig13Cfg(s Scheme, probes int) RunConfig {
	const receiver = TestbedHosts - 1
	flows := make([]workload.FlowSpec, 3)
	for i := range flows {
		flows[i] = workload.LongFlow(i, receiver, sim.Time(i)*dwrrPhase)
		flows[i].Class = i
	}
	return RunConfig{
		Topo:           TopoStar,
		Hosts:          TestbedHosts,
		Weights:        []int{2, 1, 1},
		Scheme:         s,
		RTT:            LeafSpineRTT(),
		Flows:          flows,
		Traffic:        Traffic{Probes: probes},
		SampleEnd:      dwrrDeadline,
		SampleInterval: 5 * sim.Millisecond,
		Deadline:       dwrrDeadline,
	}
}

// fig13Result reads the DWRR scenario's outcome off run r.
func fig13Result(r CellResult) Fig13Result {
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
	res.ShortFCTs = r.Collector().ShortFCTsMicros()
	return res
}

// Fig13 reproduces Figure 13: (a) per-flow goodput under ECN♯ with DWRR
// 2:1:1 — the scheduling policy must be preserved — and (b) short-flow FCT
// of ECN♯ vs TCN (threshold 150 µs per §5.4).
func Fig13(sc Scale) ([]*Table, Fig13Result, Fig13Result) {
	rtt := LeafSpineRTT()
	_, _, sharpScheme := DeriveSchemes(rtt, topology.TenGbps)
	tcn := TCNScheme(150 * sim.Microsecond)

	probes := max(sc.FlowCount/2, 40)
	schemes := []Scheme{sharpScheme, tcn}
	g := newGrid(axis(schemes, schemeLabel), oneCol, func(r, _ int) RunConfig {
		return fig13Cfg(schemes[r], probes)
	})
	runGrids(sc.firstSeed(), g)
	sharp, tcnRes := fig13Result(g.first(0, 0)), fig13Result(g.first(1, 0))

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
	for i, r := range []Fig13Result{sharp, tcnRes} {
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
