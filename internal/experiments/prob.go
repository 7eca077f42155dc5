package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
)

// aqmHook is the type of RunConfig.AQMAt: given the run's rng, the
// location-aware AQM constructor.
type aqmHook = func(rng *rand.Rand) func(topology.PortLoc, int) aqm.AQM

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

	makeCutoff := func(rng *rand.Rand) func(topology.PortLoc, int) aqm.AQM {
		return locBlind(ECNSharpScheme(base).Factory(rng))
	}
	makeProb := func(rng *rand.Rand) func(topology.PortLoc, int) aqm.AQM {
		return func(topology.PortLoc, int) aqm.AQM {
			a, err := aqm.NewECNSharpProb(base, base.InsTarget/2, base.InsTarget, 0.8, rng)
			if err != nil {
				panic(err)
			}
			return a
		}
	}

	t := &Table{
		ID:    "prob",
		Title: "§3.5 extension: cut-off vs probabilistic instantaneous marking",
		Columns: []string{"variant", "standing queue(pkts)", "drops",
			"query p99(us)", "jain fairness", "goodput sum(Gbps)"},
	}
	type variant struct {
		name string
		mk   aqmHook
	}
	variants := []variant{
		{"ECN# (cut-off)", makeCutoff},
		{"ECN# (probabilistic)", makeProb},
	}
	// Each variant runs its incast and fairness checks as one harness job.
	type probResult struct {
		standing float64
		drops    int64
		qp99     float64
		jain     float64
		sum      float64
	}
	res := runJobs(sc, axis(variants, func(v variant) string { return "prob " + v.name }),
		func(ctx context.Context, i int) (probResult, error) {
			incast, err := probIncast(ctx, variants[i].mk, sc)
			if err != nil {
				return probResult{}, err
			}
			jain, sum, err := probFairness(ctx, variants[i].mk)
			return probResult{incast.AvgQueuePkts, incast.Drops, incast.Stats.QueryP99, jain, sum}, err
		})
	for i, o := range res {
		t.AddRow(variants[i].name, f1(o.standing), fmt.Sprintf("%d", o.drops), f1(o.qp99),
			f3(o.jain), f2(o.sum))
	}
	t.AddNote("both variants should be drop-free with a low standing queue; probabilistic marking must not hurt fairness")
	return t
}

// probIncast reruns the Figure-10 scenario with a custom AQM factory.
func probIncast(ctx context.Context, mk aqmHook, sc Scale) (RunResult, error) {
	cfg := incastCfg(Scheme{}, 100, sc.FlowCount, true)
	cfg.Seed = sc.Seeds[0]
	cfg.AQMAt = mk
	cfg.SampleEnd = incastQueryAt // standing queue only
	return RunContext(ctx, cfg)
}

// probFairness runs four synchronized long flows and reports Jain's index
// of their goodput plus the aggregate.
func probFairness(ctx context.Context, mk aqmHook) (jain, sumGbps float64, err error) {
	rng := rand.New(rand.NewSource(17))
	net := topology.NewStar(5, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   DefaultPropDelay,
			BufferBytes: DefaultBufferBytes,
		},
		NewAQMAt: mk(rng),
	})
	eng := net.Engines[0]
	rtt := LeafSpineRTT()
	assigner := rttvar.NewAssigner(rtt, 10*sim.Microsecond, rng)

	const horizon = 100 * sim.Millisecond
	var meters [4]*metrics.GoodputMeter
	for i := 0; i < 4; i++ {
		cfg := transport.DefaultConfig()
		id := uint64(i + 1)
		_, extra := assigner.Next()
		net.Host(i).SetFlowDelay(id, extra)
		fl := transport.StartFlow(eng, cfg, net.Host(i), net.Host(4), id, 1<<40, 0, nil)
		recv := fl.Receiver
		meters[i] = metrics.NewGoodputMeter(eng, func() int64 { return recv.BytesInOrder },
			horizon/2, horizon, 5*sim.Millisecond)
	}
	if err := net.Shard.RunPoll(horizon, 4, ctx.Err); err != nil {
		return 0, 0, err
	}

	var sum, sumSq float64
	for _, m := range meters {
		g := m.AvgGbps()
		sum += g
		sumSq += g * g
	}
	if sumSq == 0 {
		return 0, 0, nil
	}
	return sum * sum / (4 * sumSq), sum, nil
}
