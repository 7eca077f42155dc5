package experiments

import (
	"ecnsharp/internal/core"
	"ecnsharp/internal/dist"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/workload"
)

// TestbedHosts is the 8-server testbed: 7 senders, 1 receiver (§5.2).
const TestbedHosts = 8

// TestbedRTTMin is the emulated minimum base RTT (70 µs in §2.3/§5.2).
const TestbedRTTMin = 70 * sim.Microsecond

// starCfg builds one testbed configuration; the seed is assigned by the
// harness per run.
func starCfg(scheme Scheme, wl *dist.EmpiricalCDF, load float64,
	rtt rttvar.RTTDistribution, sc Scale) RunConfig {
	cfg := shapeCfg(TopoStar, wl, load, sc.FlowCount)
	cfg.Scheme = scheme
	cfg.RTT = &rtt
	return cfg
}

// Fig2 reproduces Figure 2: with a 3× RTT variation (70–210 µs) and the
// web-search workload at 50% load, sweep the instantaneous marking
// threshold from 50 KB to 250 KB. High thresholds inflate short-flow tail
// FCT (persistent queueing); low thresholds inflate large-flow FCT
// (throughput loss). All normalized to the 50 KB threshold.
func Fig2(sc Scale) *Table {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	thresholds := []int64{50_000, 100_000, 150_000, 200_000, 250_000}
	g := newGrid(axis(thresholds, kiloBytes), oneCol, func(r, _ int) RunConfig {
		return starCfg(REDFixed(thresholds[r]), workload.WebSearchCDF, 0.5, rtt, sc)
	})
	runGrids(sc, g)

	t := &Table{
		ID:      "fig2",
		Title:   "Instantaneous marking threshold sweep, web search @50% load, 3x RTT variation ([Testbed] Fig 2)",
		Columns: []string{"K(KB)", "NFCT large:avg", "NFCT short:p99", "NFCT overall", "large(us)", "short_p99(us)"},
	}
	base := g.at(0, 0).Stats
	for r, k := range g.rows {
		s := g.at(r, 0).Stats
		t.AddRow(k,
			f3(ratio(s.LargeAvg, base.LargeAvg)),
			f3(ratio(s.ShortP99, base.ShortP99)),
			f3(ratio(s.OverallAvg, base.OverallAvg)),
			f1(s.LargeAvg), f1(s.ShortP99))
	}
	t.AddNote("paper: 250KB inflates short p99 by 119%%; ~100KB (avg RTT) costs ~8%% large-flow throughput")
	return t
}

// kiloBytes formats a byte count in KB with one decimal.
func kiloBytes(b int64) string { return f1(float64(b) / 1000) }

// Fig3 reproduces Figure 3: growing the RTT variation from 2× to 5×
// widens the gap between thresholds derived from the average RTT
// (throughput loss on large flows) and from the 90th-percentile RTT
// (queueing delay on short flows). For each variation both thresholds are
// derived from the actual RTT distribution via Equation 1, exactly the
// operator workflow.
func Fig3(sc Scale) *Table {
	variations := []float64{2, 3, 4, 5}
	rtts := make([]rttvar.RTTDistribution, len(variations))
	ks := make([][2]int64, len(variations)) // threshold from the average, the 90th-percentile RTT
	for i, v := range variations {
		rtts[i] = rttvar.NewVariation(TestbedRTTMin, v)
		ks[i][0] = core.ThresholdBytes(core.LambdaECNTCP, topology.TenGbps, rtts[i].Mean())
		ks[i][1] = core.ThresholdBytes(core.LambdaECNTCP, topology.TenGbps, rtts[i].Percentile(90))
	}
	g := newGrid(axis(variations, f1), []string{"AVG", "Tail"}, func(r, c int) RunConfig {
		return starCfg(REDFixed(ks[r][c]), workload.WebSearchCDF, 0.5, rtts[r], sc)
	})
	runGrids(sc, g)

	t := &Table{
		ID:    "fig3",
		Title: "Impact of RTT variation on the avg-vs-tail threshold dilemma ([Testbed] Fig 3)",
		Columns: []string{"variation", "K_avg(KB)", "K_tail(KB)",
			"large avg: AVG/Tail", "short p99: Tail/AVG"},
	}
	for r, v := range g.rows {
		avg, tail := g.at(r, 0).Stats, g.at(r, 1).Stats
		t.AddRow(v, kiloBytes(ks[r][0]), kiloBytes(ks[r][1]),
			f3(ratio(avg.LargeAvg, tail.LargeAvg)),
			f3(ratio(tail.ShortP99, avg.ShortP99)))
	}
	t.AddNote("paper: large-flow gap grows 6.7%%->29.8%% and short p99 gap 41%%->198%% as variation goes 2x->5x")
	return t
}
