package core_test

import (
	"fmt"

	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
)

// Example shows the operator workflow: derive thresholds from RTT
// statistics via Equations 1/2, then drive the marker per dequeued packet.
func Example() {
	// Equation 1: queue-length threshold for a 10 Gbps link at the
	// 90th-percentile RTT (what DCTCP-RED-Tail configures).
	k := core.ThresholdBytes(core.LambdaECNTCP, 10e9, 200*sim.Microsecond)
	fmt.Printf("DCTCP-RED-Tail K = %d KB\n", k/1000)

	// ECN♯: the same high-percentile threshold for the instantaneous
	// condition, plus persistent-queue detection.
	marker := core.MustNewECNSharp(core.Params{
		InsTarget:   200 * sim.Microsecond, // Equation 2: λ × p90 RTT
		PstTarget:   85 * sim.Microsecond,
		PstInterval: 200 * sim.Microsecond,
	})

	// A burst packet with sojourn above ins_target marks immediately.
	fmt.Println("burst:", marker.ShouldMark(1*sim.Millisecond, 400*sim.Microsecond))

	// A standing queue between the targets marks only after a full
	// pst_interval of continuous buildup, then conservatively.
	now := 2 * sim.Millisecond
	marks := 0
	for i := 0; i < 100; i++ {
		now += 10 * sim.Microsecond
		if marker.ShouldMark(now, 120*sim.Microsecond) != core.NotMarked {
			marks++
		}
	}
	fmt.Printf("standing queue: %d marks in 100 packets\n", marks)

	// Output:
	// DCTCP-RED-Tail K = 250 KB
	// burst: instantaneous
	// standing queue: 10 marks in 100 packets
}
