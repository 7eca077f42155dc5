// Package bench holds the benchmark bodies shared by `go test -bench`
// (via thin wrappers in each package's bench_test.go), the root package's
// TestAllocBaseline and benchmark/'s kernels, so the allocation gate and
// interactive benchmarking measure exactly the same code.
//
// Every body calls b.ReportAllocs: the hot-path contract (see DESIGN.md
// "Hot path & memory discipline") is expressed in allocs/op, and
// TestAllocBaseline treats allocation counts against BENCH_runtime.json as
// exact, not toleranced.
package bench

import (
	"errors"
	"strings"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/cache"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/fault"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
)

// nop is the scheduled no-op; package-level so taking its address never
// allocates a closure.
func nop() {}

// ScheduleAndRun measures raw event throughput: the entire simulator's
// speed limit. Zero allocs/op: the queue's buckets and the slot arena
// amortize their growth and scheduling itself touches no heap memory.
func ScheduleAndRun(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+sim.Time(i%64), nop)
		if e.Len() > 1024 {
			for e.Step() {
				if e.Len() <= 64 {
					break
				}
			}
		}
	}
	e.Run()
}

// NestedAfter measures the common pattern of events scheduling their
// successors (links, timers). The single tick closure amortizes to zero
// allocs/op.
func NestedAfter(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	b.ReportAllocs()
	e.Schedule(0, tick)
	e.Run()
}

// TimerChurn measures the retransmission-timer pattern that dominates a
// loaded cell: 1,024 tickers fire 1 µs apart, and each firing cancels its
// own 2 ms timer and re-arms it (Sender.armRTO on every ACK) before
// rescheduling itself, so no timer ever expires. One op is one firing:
// a pop, a Cancel and two schedules. The queue must hold the live events
// only — a ticker and a timer each — however many timers were canceled.
func TimerChurn(b *testing.B) {
	const tickers = 1024
	e := sim.NewEngine()
	rto := make([]sim.Event, tickers)
	fired, peak := 0, 0
	var tick func(any)
	tick = func(arg any) {
		timer := arg.(*sim.Event)
		e.Cancel(*timer)
		*timer = e.After(2*sim.Millisecond, nop)
		if n := e.Len(); n > peak {
			peak = n
		}
		fired++
		e.AfterArg(tickers*sim.Microsecond, tick, timer)
	}
	for i := range rto {
		e.ScheduleArg(sim.Time(i)*sim.Microsecond, tick, &rto[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N && e.Step() {
	}
	if peak > 2*tickers {
		b.Fatalf("event queue peaked at %d entries for %d live events", peak, 2*tickers)
	}
}

// EgressFIFO measures the full egress path with a sojourn AQM. Packets
// cycle through a pool exactly as forwarding does in a simulation, so
// steady state is zero allocs/op.
func EgressFIFO(b *testing.B) {
	eg := queue.NewEgress(nil, 0, func(int) aqm.AQM {
		return aqm.NewTCN(100 * sim.Microsecond)
	})
	pool := &packet.Pool{}
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += 1200
		p := pool.Get()
		p.Kind = packet.Data
		p.PayloadLen = packet.MSS
		p.ECN = packet.ECT
		eg.Enqueue(now, p)
		if eg.Len() > 256 {
			for eg.Len() > 32 {
				pool.Put(eg.Dequeue(now))
			}
		}
	}
}

// BulkTransfer measures whole-stack simulation throughput: two 10 MB
// DCTCP flows through a marking switch (the dominant cost of every
// experiment).
func BulkTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := topology.NewStar(3, topology.Options{
			Link: topology.LinkParams{
				RateBps:     topology.TenGbps,
				PropDelay:   2 * sim.Microsecond,
				BufferBytes: 600 * 1500,
			},
			NewAQM: func(int) aqm.AQM { return aqm.NewREDInstantBytes(100 * 1500) },
		})
		cfg := transport.DefaultConfig()
		table := transport.NewFlowTable(2)
		table.Launch(cfg, net.Host(0), net.Host(2), 1, 10_000_000, 0, false)
		table.Launch(cfg, net.Host(1), net.Host(2), 2, 10_000_000, 0, false)
		net.Shard.Run()
		if !table.Done[0] || !table.Done[1] {
			b.Fatal("flows incomplete")
		}
	}
}

// FlapStorm measures the fault-injection path at scale: a 1024-host
// leaf-spine fabric (4 spines x 16 leaves x 16 hosts) with one spine
// uplink flapping 100 times while cross-leaf flows ride the churn
// through RTO recovery and ECMP re-resolution. This is the injector's
// worst case — every flap re-resolves the flapping leaf's uplink sets —
// and it bounds the per-transition cost of fault handling; the healthy
// hot path itself stays zero-alloc (the other benchmarks run with no
// schedule attached and their allocs/op do not move).
func FlapStorm(b *testing.B) {
	sched := &fault.Schedule{
		Seed: 7,
		Flaps: []fault.Flap{{
			Link:        "leaf0-spine1",
			Count:       100,
			FirstDownUS: 20,
			MeanDownUS:  30,
			MeanGapUS:   50,
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := topology.NewLeafSpine(4, 16, 16, topology.Options{
			Link: topology.LinkParams{
				RateBps:     topology.TenGbps,
				PropDelay:   sim.Microsecond,
				BufferBytes: 600 * 1500,
			},
			NewAQM: func(int) aqm.AQM { return aqm.NewREDInstantBytes(100 * 1500) },
		})
		if _, err := fault.Install(net, sched); err != nil {
			b.Fatal(err)
		}
		cfg := transport.DefaultConfig()
		done := 0
		table := transport.NewFlowTable(8)
		table.OnDone = func(int) { done++ }
		for f := 0; f < 8; f++ {
			// Sources on leaf0 so every flow's uplink set is the one the
			// flapping link belongs to; destinations spread across leaves,
			// each endpoint on its own host's domain.
			table.Launch(cfg, net.Host(f), net.Host(16*(1+f)+f), uint64(f+1), 1_000_000, 0, false)
		}
		net.Shard.Run()
		if done != 8 {
			b.Fatal("flows incomplete under flap storm")
		}
	}
}

// IncastBurst measures the cost of the synchronized-burst scenario that
// dominates the Figure 10/11 experiments.
func IncastBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := topology.NewStar(17, topology.Options{
			Link: topology.LinkParams{
				RateBps:     topology.TenGbps,
				PropDelay:   sim.Microsecond,
				BufferBytes: 600 * 1500,
			},
			NewAQM: func(int) aqm.AQM { return aqm.NewREDInstantBytes(180 * 1500) },
		})
		cfg := transport.DefaultConfig()
		cfg.InitCwndSegments = 2
		done := 0
		table := transport.NewFlowTable(64)
		table.OnDone = func(int) { done++ }
		for f := 0; f < 64; f++ {
			table.Launch(cfg, net.Host(f%16), net.Host(16), uint64(f+1), 30_000, 0, false)
		}
		net.Shard.Run()
		if done != 64 {
			b.Fatal("burst incomplete")
		}
	}
}

// cellPayload returns the encoded result of one fixed synthetic cell of 400
// completed flows (no simulator run).
func cellPayload(b *testing.B) []byte {
	spec, err := experiments.ParseSweepSpec([]byte(`{}`)) // one 400-flow cell
	if err != nil {
		b.Fatal(err)
	}
	res := experiments.CellResult{SchemaVersion: experiments.ResultSchemaVersion, Cell: spec.Cells()[0],
		Completed: 400, Injected: 400, Drops: 12, Marks: 3456, Timeouts: 2, Retransmits: 40}
	size, fct := int64(1), int64(1)
	for i := 0; i < 400; i++ {
		size = size*6364136223846793005 + 1442695040888963407 // an LCG: fixed, varied digit counts
		fct = fct*2862933555777941757 + 3037000493
		res.Records = append(res.Records, metrics.FCTRecord{
			Size:  1 + (size>>1)%30_000_000,
			FCT:   sim.Time(10_000 + (fct>>1)%100_000_000),
			Query: i%10 == 0,
		})
	}
	res.Stats = metrics.StatsOf(res.Records)
	payload, err := res.Encode()
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// DecodeCellResult measures a result-cache hit's decode: cellPayload's
// 400-flow cell, encoded once and decoded every op, the way the daemon
// reads back a stored cell.
func DecodeCellResult(b *testing.B) {
	payload := cellPayload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DecodeCellResult(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// StoreHit measures a result-cache hit's read: Store.DoPrior on the present
// entry of cellPayload's 400-flow cell, every op a hit. With prior, each op
// is handed the entry's bytes from an earlier hit, so the file is read and
// compared; without, it is read, parsed and hashed.
func StoreHit(prior bool) func(*testing.B) {
	return func(b *testing.B) {
		store, err := cache.Open(b.TempDir(), cache.Options{})
		if err != nil {
			b.Fatal(err)
		}
		key := strings.Repeat("5a", 32) // a SHA-256 hex digest's shape
		if err := store.Put(key, cellPayload(b)); err != nil {
			b.Fatal(err)
		}
		var entry []byte
		if prior {
			entry, _, _, _ = store.GetPrior(key, nil)
		}
		compute := func() ([]byte, error) { return nil, errors.New("bench: the stored entry was not read") }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, hit, err := store.DoPrior(key, entry, compute); !hit || err != nil {
				b.Fatalf("hit=%v, err=%v", hit, err)
			}
		}
	}
}
