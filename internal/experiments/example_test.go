package experiments_test

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/workload"
)

// Example runs one custom simulation through the experiment runner: the
// building block every figure is assembled from.
func Example() {
	rtt := rttvar.NewVariation(70*sim.Microsecond, 3)
	tail, _, sharp := experiments.DeriveSchemes(rtt, topology.TenGbps)

	run := func(s experiments.Scheme) experiments.RunResult {
		return experiments.Run(experiments.RunConfig{
			Seed:   7,
			Topo:   experiments.TopoStar,
			Hosts:  8,
			Scheme: s,
			RTT:    &rtt,
			FlowGen: func(rng *rand.Rand) []workload.FlowSpec {
				return workload.PoissonFlows(rng, workload.PoissonConfig{
					SizeDist:    workload.WebSearchCDF,
					Load:        0.6,
					CapacityBps: topology.TenGbps,
					Pairs:       workload.StarPairs([]int{0, 1, 2, 3, 4, 5, 6}, 7),
					FlowCount:   150,
				})
			},
		})
	}

	rTail := run(tail)
	rSharp := run(sharp)
	fmt.Println("all flows completed:",
		rTail.Completed == rTail.Injected && rSharp.Completed == rSharp.Injected)
	fmt.Println("ECN# short-flow p99 below Tail:",
		rSharp.Stats.ShortP99 < rTail.Stats.ShortP99)

	// Output:
	// all flows completed: true
	// ECN# short-flow p99 below Tail: true
}

// ExampleDeriveSchemes is the operator workflow of §3.4: measure the
// base-RTT distribution (here 3× variation, 70–210 µs), then derive every
// scheme's marking thresholds from its statistics via Equations 1 and 2.
func ExampleDeriveSchemes() {
	rtt := rttvar.NewVariation(70*sim.Microsecond, 3)
	tail, avg, sharp := experiments.DeriveSchemes(rtt, topology.TenGbps)

	fmt.Printf("RTT: min=%v mean=%v p90=%v max=%v\n",
		rtt.Min, rtt.Mean(), rtt.Percentile(90), rtt.Max)
	fmt.Printf("%s threshold: %d KB\n", tail.Label, tail.KBytes/1000)
	fmt.Printf("%s threshold: %d KB\n", avg.Label, avg.KBytes/1000)
	fmt.Printf("%s: ins_target=%v pst_target=%v pst_interval=%v\n", sharp.Label,
		sharp.Params.InsTarget, sharp.Params.PstTarget, sharp.Params.PstInterval)

	// Output:
	// RTT: min=70µs mean=118.299µs p90=192.5µs max=210µs
	// DCTCP-RED-Tail threshold: 240 KB
	// DCTCP-RED-AVG threshold: 147 KB
	// ECN#: ins_target=192.5µs pst_target=70.979µs pst_interval=192.5µs
}
