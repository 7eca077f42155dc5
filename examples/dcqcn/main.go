// DCQCN: the §3.5 discussion made runnable. Rate-based DCQCN-lite
// endpoints (RDMA-style: paced sending, α-driven cuts on congestion
// notifications, staged rate increase) run against three switch marking
// schemes. Cut-off marking — ECN♯ as published — synchronizes every
// sender's cuts and wrecks utilization; the probabilistic variant the
// paper sketches restores it while keeping the persistent-queue control.
//
// Run with:
//
//	go run ./examples/dcqcn
package main

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
)

func run(name string, newAQM func(int) aqm.AQM) {
	net := topology.NewStar(5, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   2 * sim.Microsecond,
			BufferBytes: 600 * 1500,
		},
		NewAQM: newAQM,
	})
	eng := net.Engines[0]
	cfg := transport.DefaultDCQCNConfig()
	var recvs []*transport.Receiver
	for i := 0; i < 4; i++ {
		_, r := transport.StartDCQCNFlow(eng, cfg, net.Host(i), net.Host(4),
			uint64(i+1), 1<<40, 0, nil)
		recvs = append(recvs, r)
	}
	net.Shard.RunUntil(100 * sim.Millisecond)
	base := make([]int64, 4)
	for i, r := range recvs {
		base[i] = r.BytesInOrder
	}
	net.Shard.RunUntil(200 * sim.Millisecond)

	var sum, sumSq float64
	for i, r := range recvs {
		g := float64(r.BytesInOrder-base[i]) * 8 / 0.1 / 1e9
		sum += g
		sumSq += g * g
	}
	fmt.Printf("%-22s goodput %5.2f Gbps | Jain %.3f | drops %d\n",
		name, sum, sum*sum/(4*sumSq), net.EgressTo(4).Egress.Drops)
}

func main() {
	fmt.Println("four DCQCN-lite flows sharing a 10G port, steady-state window:")
	params := core.Params{
		InsTarget:   220 * sim.Microsecond,
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}
	run("ECN# cut-off", func(int) aqm.AQM { return aqm.MustNewECNSharp(params) })

	rng := rand.New(rand.NewSource(1))
	run("RED probabilistic", func(int) aqm.AQM {
		return aqm.NewRED(5*1500, 200*1500, 0.25, rng)
	})
	rng2 := rand.New(rand.NewSource(1))
	run("ECN#-prob (§3.5)", func(int) aqm.AQM {
		a, err := aqm.NewECNSharpProb(params,
			6*sim.Microsecond, 240*sim.Microsecond, 0.25, rng2)
		if err != nil {
			panic(err)
		}
		return a
	})
	fmt.Println("\ncut-off marking should lose ~15-25% utilization; the probabilistic variants should not.")
}
