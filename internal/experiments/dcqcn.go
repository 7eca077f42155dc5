package experiments

import (
	"fmt"

	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

// DCQCNExtension closes the loop on §3.5: it runs rate-based DCQCN-lite
// endpoints (the transport the paragraph is about) against three switch
// marking schemes and measures what DCQCN needs — convergence (Jain
// fairness of four long flows), utilization, queueing, and drops:
//
//   - ECN♯ as published (cut-off instantaneous marking): above the
//     threshold *every* packet is marked, so every sender receives CNPs in
//     every interval and cuts in lockstep — utilization collapses.
//   - RED probabilistic marking (what DCQCN deployments configure).
//   - ECN♯-prob (the §3.5 variant): the RED-style ramp plus ECN♯'s
//     persistent-queue marking, which RED lacks.
func DCQCNExtension(sc Scale) *Table {
	variants := dcqcnSchemes()
	t := &Table{
		ID:    "dcqcn",
		Title: "§3.5 closed loop: DCQCN-lite endpoints under cut-off vs probabilistic marking",
		Columns: []string{"marking", "goodput sum(Gbps)", "jain fairness",
			"avg queue(pkts)", "drops"},
	}
	g := newGrid(axis(variants, schemeLabel), oneCol, func(r, _ int) RunConfig {
		return dcqcnCfg(variants[r])
	})
	runGrids(sc.firstSeed(), g)
	for i, label := range g.rows {
		r := g.first(i, 0)
		jain, sum := longFlowFairness(r)
		t.AddRow(label, f2(sum), f3(jain), f1(r.AvgQueuePkts), fmt.Sprintf("%d", r.Drops))
	}
	t.AddNote("DCQCN needs probabilistic marking: cut-off marking synchronizes cuts and wrecks utilization (§3.5)")
	return t
}

// dcqcnSchemes returns the three switch marking schemes DCQCNExtension
// compares, cut-off ECN♯ first.
func dcqcnSchemes() []Scheme {
	rtt := LeafSpineRTT()
	pstParams := core.Params{
		InsTarget:   rtt.Percentile(90),
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}
	// Ramp bounds chosen as the Equation-2 sojourn equivalents of DCQCN's
	// Kmin/Kmax on a 10 G link.
	tmin := sim.Time(float64(5*1500*8) / topology.TenGbps * float64(sim.Second))
	tmax := sim.Time(float64(200*1500*8) / topology.TenGbps * float64(sim.Second))
	probParams := pstParams
	probParams.InsTarget = tmax

	return []Scheme{
		{Kind: SchemeECNSharp, Label: "ECN# cut-off", Params: pstParams},
		{Kind: SchemeRED, Label: "RED 5KB/200KB/25%", KBytes: 200 * 1500,
			Ramp: Ramp{KminBytes: 5 * 1500, Pmax: 0.25}},
		{Kind: SchemeECNSharpProb, Label: "ECN#-prob", Params: probParams,
			Ramp: Ramp{TMin: tmin, Pmax: 0.25}},
	}
}

// dcqcnCfg is one closed-loop run under marking scheme s: four DCQCN-lite
// long flows into host 4 of a 5-host star, the last-hop queue and every
// flow's goodput sampled each ms over the second 100 ms.
func dcqcnCfg(s Scheme) RunConfig {
	const half = 100 * sim.Millisecond
	rate := transport.DefaultDCQCNConfig()
	tc := transport.DefaultConfig()
	tc.DCQCN = &rate
	flows := make([]workload.FlowSpec, 4)
	for i := range flows {
		flows[i] = workload.LongFlow(i, len(flows), 0)
	}
	return RunConfig{
		Topo:           TopoStar,
		Hosts:          len(flows) + 1,
		PropDelay:      2 * sim.Microsecond,
		Scheme:         s,
		Transport:      tc,
		Flows:          flows,
		SampleQueueOf:  len(flows),
		SampleStart:    half,
		SampleEnd:      2 * half,
		SampleInterval: sim.Millisecond,
		Deadline:       2 * half,
	}
}
