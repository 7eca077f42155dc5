// Scheduler: ECN♯ under DWRR with three weighted service queues — the
// paper's Figure 13 scenario. Three long-lived flows in classes weighted
// 2:1:1 start 50 ms apart; the goodput shares must follow the weights at
// every phase, showing that sojourn-time marking composes with arbitrary
// packet schedulers.
//
// Run with:
//
//	go run ./examples/scheduler
package main

import (
	"fmt"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
)

func main() {
	weights := []int{2, 1, 1}
	params := core.Params{
		InsTarget:   220 * sim.Microsecond,
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}
	// The topology constructor owns the engines: net.Engines[0] is the one
	// domain of a star, which components schedule on, and net.Shard drives
	// the run (pass Shards in Options to partition a leaf-spine fabric).
	net := topology.NewStar(4, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   sim.Microsecond,
			BufferBytes: 600 * 1500,
		},
		NumQueues: len(weights),
		NewSched:  func() queue.Scheduler { return queue.NewDWRR(weights) },
		NewAQM:    func(int) aqm.AQM { return aqm.MustNewECNSharp(params) },
	})
	eng := net.Engines[0]

	const phase = 50 * sim.Millisecond
	var meters [3]*metrics.GoodputMeter
	for i := 0; i < 3; i++ {
		cfg := transport.DefaultConfig()
		cfg.Class = i
		fl := transport.StartFlow(eng, cfg, net.Host(i), net.Host(3),
			uint64(i+1), 1<<40, sim.Time(i)*phase, nil)
		recv := fl.Receiver
		meters[i] = metrics.NewGoodputMeter(eng,
			func() int64 { return recv.BytesInOrder }, 0, 3*phase, 10*sim.Millisecond)
	}
	net.Shard.RunUntil(3 * phase)

	fmt.Println("goodput (Gbps) per 10ms window; flows start at 0/50/100 ms, DWRR weights 2:1:1")
	fmt.Printf("%8s  %8s  %8s  %8s\n", "t(ms)", "flow1", "flow2", "flow3")
	for i := range meters[0].Series {
		fmt.Printf("%8.0f", meters[0].Series[i].At.Seconds()*1000)
		for f := 0; f < 3; f++ {
			g := 0.0
			if i < len(meters[f].Series) {
				g = meters[f].Series[i].Gbps
			}
			fmt.Printf("  %8.2f", g)
		}
		fmt.Println()
	}
	fmt.Println("\nexpected phases: ~9.6 | ~6.4/3.2 | ~4.8/2.4/2.4 (paper Fig 13a)")
}
