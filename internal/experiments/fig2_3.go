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

// starRun executes one testbed configuration pooled over seeds.
func starRun(scheme Scheme, wl *dist.EmpiricalCDF, load float64,
	rtt rttvar.RTTDistribution, sc Scale) RunResult {
	return RunSeeds(sc, starCfg(scheme, wl, load, rtt, sc))
}

// Fig2 reproduces Figure 2: with a 3× RTT variation (70–210 µs) and the
// web-search workload at 50% load, sweep the instantaneous marking
// threshold from 50 KB to 250 KB. High thresholds inflate short-flow tail
// FCT (persistent queueing); low thresholds inflate large-flow FCT
// (throughput loss). All normalized to the 50 KB threshold.
func Fig2(sc Scale) *Table {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	thresholds := []int64{50_000, 100_000, 150_000, 200_000, 250_000}

	type point struct {
		k        int64
		largeAvg float64
		shortP99 float64
		overall  float64
	}
	cfgs := make([]RunConfig, 0, len(thresholds))
	for _, k := range thresholds {
		cfgs = append(cfgs, starCfg(REDFixed(k), workload.WebSearchCDF, 0.5, rtt, sc))
	}
	results := RunAll(sc, cfgs)
	pts := make([]point, 0, len(thresholds))
	for i, k := range thresholds {
		r := results[i]
		pts = append(pts, point{k, r.Stats.LargeAvg, r.Stats.ShortP99, r.Stats.OverallAvg})
	}
	base := pts[0]
	t := &Table{
		ID:      "fig2",
		Title:   "Instantaneous marking threshold sweep, web search @50% load, 3x RTT variation ([Testbed] Fig 2)",
		Columns: []string{"K(KB)", "NFCT large:avg", "NFCT short:p99", "NFCT overall", "large(us)", "short_p99(us)"},
	}
	for _, p := range pts {
		t.AddRow(f1(float64(p.k)/1000),
			f3(ratio(p.largeAvg, base.largeAvg)),
			f3(ratio(p.shortP99, base.shortP99)),
			f3(ratio(p.overall, base.overall)),
			f1(p.largeAvg), f1(p.shortP99))
	}
	t.AddNote("paper: 250KB inflates short p99 by 119%%; ~100KB (avg RTT) costs ~8%% large-flow throughput")
	return t
}

// Fig3 reproduces Figure 3: growing the RTT variation from 2× to 5×
// widens the gap between thresholds derived from the average RTT
// (throughput loss on large flows) and from the 90th-percentile RTT
// (queueing delay on short flows). For each variation both thresholds are
// derived from the actual RTT distribution via Equation 1, exactly the
// operator workflow.
func Fig3(sc Scale) *Table {
	t := &Table{
		ID:    "fig3",
		Title: "Impact of RTT variation on the avg-vs-tail threshold dilemma ([Testbed] Fig 3)",
		Columns: []string{"variation", "K_avg(KB)", "K_tail(KB)",
			"large avg: AVG/Tail", "short p99: Tail/AVG"},
	}
	variations := []float64{2, 3, 4, 5}
	type pair struct{ kAvg, kTail int64 }
	ks := make([]pair, 0, len(variations))
	cfgs := make([]RunConfig, 0, 2*len(variations))
	for _, v := range variations {
		rtt := rttvar.NewVariation(TestbedRTTMin, v)
		kAvg := core.ThresholdBytes(core.LambdaECNTCP, topology.TenGbps, rtt.Mean())
		kTail := core.ThresholdBytes(core.LambdaECNTCP, topology.TenGbps, rtt.Percentile(90))
		ks = append(ks, pair{kAvg, kTail})
		cfgs = append(cfgs,
			starCfg(REDFixed(kAvg), workload.WebSearchCDF, 0.5, rtt, sc),
			starCfg(REDFixed(kTail), workload.WebSearchCDF, 0.5, rtt, sc))
	}
	results := RunAll(sc, cfgs)
	for i, v := range variations {
		avg, tail := results[2*i], results[2*i+1]
		t.AddRow(f1(v), f1(float64(ks[i].kAvg)/1000), f1(float64(ks[i].kTail)/1000),
			f3(ratio(avg.Stats.LargeAvg, tail.Stats.LargeAvg)),
			f3(ratio(tail.Stats.ShortP99, avg.Stats.ShortP99)))
	}
	t.AddNote("paper: large-flow gap grows 6.7%%->29.8%% and short p99 gap 41%%->198%% as variation goes 2x->5x")
	return t
}
