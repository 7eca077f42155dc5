package main

import (
	"flag"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/bench"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
)

// Kernels cover the layers that only ever run inside engine callbacks, where
// no span can be put around them from outside: each is timed alone with
// testing.Benchmark. internal/bench already holds bodies for most; the rest
// are below.

// handoffBatch is how many messages each window of benchHandoff carries, so
// the per-message figure is not the per-window barrier cost.
const handoffBatch = 64

// benchHandoff measures a cross-domain message: Handoff.Send on one domain,
// the drain into the destination engine at the barrier, and the delivery
// event there.
func benchHandoff(b *testing.B) {
	const lookahead = sim.Microsecond
	se := sim.NewShardedEngine(2, lookahead, 1)
	delivered := 0
	h := se.NewHandoff(se.Domain(1), func(any) { delivered++ })
	src := se.Domain(0)
	sent := 0
	var tick func()
	tick = func() {
		for i := 0; i < handoffBatch && sent < b.N; i++ {
			h.Send(src.Now()+lookahead, nil)
			sent++
		}
		if sent < b.N {
			src.After(lookahead, tick)
		}
	}
	src.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	se.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d handoffs", delivered, b.N)
	}
}

// benchEmptyWindow measures one synchronization window of a fabric100k-sized
// coordinator (266 domains) in which a single domain has a single event:
// what every window costs before any useful work.
func benchEmptyWindow(b *testing.B) {
	const lookahead = sim.Microsecond
	se := sim.NewShardedEngine(266, lookahead, 1)
	eng := se.Domain(0)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			eng.After(lookahead, tick)
		}
	}
	eng.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	se.Run()
	if se.Windows() != uint64(b.N) {
		b.Fatalf("ran %d windows for %d ticks", se.Windows(), b.N)
	}
}

// benchECNSharp measures the ECN# dequeue decision with the testbed
// parameters, over sojourn times that cross both targets.
func benchECNSharp(b *testing.B) {
	a := aqm.MustNewECNSharp(experiments.TestbedSchemes()[3].Params)
	p := &packet.Packet{Kind: packet.Data, PayloadLen: packet.MSS, ECN: packet.ECT}
	marks := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * 1200
		if a.OnDequeue(now, p, sim.Time(i%300)*sim.Microsecond) {
			marks++
		}
	}
	if b.N > 1000 && marks == 0 {
		b.Fatal("ECN# never marked")
	}
}

// benchPacketPool measures one packet's trip through the free list.
func benchPacketPool(b *testing.B) {
	pool := &packet.Pool{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pool.Put(pool.Get())
	}
}

// bulkPackets is the number of data segments bench.BulkTransfer moves per
// operation: two 10 MB flows.
const bulkPackets = 2 * ((10_000_000 + packet.MSS - 1) / packet.MSS)

// runKernels times every kernel and reports each as one per-layer metric.
func (r *run) runKernels() error {
	testing.Init()
	if err := flag.Set("test.benchtime", r.size.kernelTime); err != nil {
		return err
	}
	kernels := []struct {
		metric string
		body   func(*testing.B)
		perOp  float64 // nanoseconds per op are divided by this
	}{
		{"sim.schedule_ns_op", bench.ScheduleAndRun, 1},
		{"sim.nested_after_ns_op", bench.NestedAfter, 1},
		{"sim.handoff_ns_op", benchHandoff, 1},
		{"sim.empty_window_us", benchEmptyWindow, 1e3},
		{"transport.bulk_ns_pkt", bench.BulkTransfer, bulkPackets},
		{"transport.incast_us_op", bench.IncastBurst, 1e3},
		{"queue.egress_ns_op", bench.EgressFIFO, 1},
		{"aqm.ecnsharp_ns_op", benchECNSharp, 1},
		{"packet.pool_ns_op", benchPacketPool, 1},
	}
	for _, k := range kernels {
		res := testing.Benchmark(k.body)
		if res.N == 0 {
			r.tally.check(false, "kernel %s failed", k.metric)
			continue
		}
		r.layer[k.metric] = float64(res.T.Nanoseconds()) / float64(res.N) / k.perOp
	}
	return nil
}
