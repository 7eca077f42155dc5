package experiments

import (
	"context"
	"fmt"
	"math/rand"

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

	variants := []Scheme{
		{Kind: SchemeECNSharp, Label: "ECN# cut-off", Params: pstParams},
		{Kind: SchemeRED, Label: "RED 5KB/200KB/25%", KBytes: 200 * 1500,
			Ramp: Ramp{KminBytes: 5 * 1500, Pmax: 0.25}},
		{Kind: SchemeECNSharpProb, Label: "ECN#-prob", Params: probParams,
			Ramp: Ramp{TMin: tmin, Pmax: 0.25}},
	}

	t := &Table{
		ID:    "dcqcn",
		Title: "§3.5 closed loop: DCQCN-lite endpoints under cut-off vs probabilistic marking",
		Columns: []string{"marking", "goodput sum(Gbps)", "jain fairness",
			"avg queue(pkts)", "drops"},
	}
	// The three marking variants are independent; fan them out.
	res := runJobs(sc, axis(variants, func(v Scheme) string { return "dcqcn " + v.Label }),
		func(ctx context.Context, i int) (dcqcnResult, error) {
			return runDCQCNFairness(ctx, variants[i], sc.Seeds[0])
		})
	for i, o := range res {
		t.AddRow(variants[i].Label, f2(o.SumGbps), f3(o.Jain), f1(o.AvgQueuePkts), fmt.Sprintf("%d", o.Drops))
	}
	t.AddNote("DCQCN needs probabilistic marking: cut-off marking synchronizes cuts and wrecks utilization (§3.5)")
	return t
}

// dcqcnResult is the measured outcome of one DCQCN fairness run.
type dcqcnResult struct {
	SumGbps      float64
	Jain         float64
	AvgQueuePkts float64
	Drops        int64
}

// runDCQCNFairness runs four long-lived DCQCN flows into one port and
// measures steady-state goodput statistics over the second half, with
// the switch marking as scheme s.
func runDCQCNFairness(ctx context.Context, s Scheme, seed int64) (dcqcnResult, error) {
	var out dcqcnResult
	cfg := RunConfig{Topo: TopoStar, Hosts: 5, PropDelay: 2 * sim.Microsecond, Scheme: s}
	cfg.defaults()
	net := cfg.newNet(rand.New(rand.NewSource(seed)))
	eng := net.Engines[0]
	tc := transport.DefaultDCQCNConfig()
	var recvs []*transport.Receiver
	for i := 0; i < 4; i++ {
		_, r := transport.StartDCQCNFlow(eng, tc, net.Host(i), net.Host(4),
			uint64(i+1), workload.LongFlowBytes, 0, nil)
		recvs = append(recvs, r)
	}
	const half = 100 * sim.Millisecond
	if err := net.Shard.RunPoll(half, 4, ctx.Err); err != nil {
		return out, err
	}
	base := make([]int64, len(recvs))
	for i, r := range recvs {
		base[i] = r.BytesInOrder
	}
	// Sample the queue each ms over the measured half.
	eg := net.EgressTo(4).Egress
	var qsum float64
	var qn int
	for ms := 1; ms <= 100; ms++ {
		if err := net.Shard.RunPoll(half+sim.Time(ms)*sim.Millisecond, 4, ctx.Err); err != nil {
			return out, err
		}
		qsum += float64(eg.Len())
		qn++
	}
	goodput := make([]float64, len(recvs))
	for i, r := range recvs {
		goodput[i] = float64(r.BytesInOrder-base[i]) * 8 / 0.1 / 1e9
	}
	out.Jain, out.SumGbps = jainIndex(goodput)
	out.AvgQueuePkts = qsum / float64(qn)
	out.Drops = eg.Drops
	return out, nil
}
