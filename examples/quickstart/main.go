// Quickstart: build an 8-host star testbed, inject a web-search workload
// with 3× RTT variation, and compare ECN♯ against the current practice
// (DCTCP-RED with a 90th-percentile-RTT threshold).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
)

func main() {
	// The operator workflow from the paper: measure the base-RTT
	// distribution (here: 3× variation, 70–210 µs), then derive marking
	// thresholds from its statistics via Equation 1/2.
	rtt := rttvar.NewVariation(70*sim.Microsecond, 3)
	tail, _, sharp := experiments.DeriveSchemes(rtt, topology.TenGbps)

	fmt.Printf("RTT distribution: min=%v mean=%v p90=%v max=%v\n",
		rtt.Min, rtt.Mean(), rtt.Percentile(90), rtt.Max)
	fmt.Printf("derived DCTCP-RED-Tail threshold: %d KB\n", tail.KBytes/1000)
	fmt.Printf("derived ECN# params: ins_target=%v pst_target=%v pst_interval=%v\n\n",
		sharp.Params.InsTarget, sharp.Params.PstTarget, sharp.Params.PstInterval)

	// A Cell names one run on the 8-host testbed star (7 senders, 1
	// receiver, Poisson web-search arrivals) — the unit ecnsim, ecnsharpd
	// and the tuner all execute — and resolves the scheme by name against
	// the same RTT distribution.
	for _, name := range []string{"red-tail", "ecnsharp"} {
		cfg, err := experiments.Cell{
			Topo: "star", Scheme: name, Workload: "websearch",
			Load: 0.6, Flows: 300, Seed: 42,
			RTTMinUS: 70, RTTVariation: 3,
		}.RunConfig()
		if err != nil {
			panic(err)
		}
		scheme, r := cfg.Scheme, experiments.Run(cfg)
		s := r.Stats
		fmt.Printf("%-16s overall avg %8.1f us | short avg %7.1f us p99 %8.1f us | large avg %9.1f us\n",
			scheme.Label, s.OverallAvg, s.ShortAvg, s.ShortP99, s.LargeAvg)
	}
	fmt.Println("\nECN# should show clearly lower short-flow FCT at similar large-flow FCT.")
}
