package queue_test

import (
	"strconv"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/bench"
	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

func benchPacket() *packet.Packet {
	return &packet.Packet{Kind: packet.Data, PayloadLen: packet.MSS, ECN: packet.ECT}
}

// BenchmarkFIFOPushPop measures the raw queue cost per packet. A packet is
// in one queue at a time, so the pushes cycle through more packets than
// the queue ever holds.
func BenchmarkFIFOPushPop(b *testing.B) {
	f := queue.NewFIFO()
	ps := make([]*packet.Packet, 1024)
	for i := range ps {
		ps[i] = benchPacket()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Push(ps[i%len(ps)])
		if f.Len() > 512 {
			for f.Len() > 64 {
				f.Pop()
			}
		}
	}
}

// BenchmarkEgressFIFO measures the full egress path with a sojourn AQM.
// ports=1 is one egress, whose body lives in internal/bench so that `go
// test -bench` and the root package's TestAllocBaseline gate measure
// identical code. The larger cases are a footprint ladder: that many
// ports in one slab, as topology lays them out, under one switch's
// settings, visited in turn with one enqueue and one dequeue each.
func BenchmarkEgressFIFO(b *testing.B) {
	b.Run("ports=1", bench.EgressFIFO)
	for _, n := range []int{100, 10_000, 100_000} {
		b.Run("ports="+strconv.Itoa(n), func(b *testing.B) { egressLadder(b, n) })
	}
}

// egressLadder is BenchmarkEgressFIFO over n ports, each with an AQM of its
// own.
func egressLadder(b *testing.B, n int) {
	set := &queue.Settings{Tally: new(queue.Tally), PacketPool: new(packet.Pool)}
	ports := make([]device.Port, n)
	for i := range ports {
		ports[i].Egress.Init(nil, func(int) aqm.AQM { return aqm.NewTCN(100 * sim.Microsecond) }, set)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += 1200
		eg := &ports[i%n].Egress
		p := set.PacketPool.Get()
		p.Kind, p.PayloadLen, p.ECN = packet.Data, packet.MSS, packet.ECT
		eg.Enqueue(now, p)
		set.PacketPool.Put(eg.Dequeue(now))
	}
}

// BenchmarkEgressFIFOTracedNop measures the same path as BenchmarkEgressFIFO
// with a no-op tracer attached: the full cost of event construction and the
// interface call, without any consumer work. Compare against the untraced
// benchmark to see the instrumentation ceiling; a nil tracer (the default)
// costs only the branch.
func BenchmarkEgressFIFOTracedNop(b *testing.B) {
	eg := queue.NewEgress(nil, 0, func(int) aqm.AQM {
		return aqm.NewTCN(100 * sim.Microsecond)
	})
	eg.SetTracer(trace.Nop{}, 0)
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += 1200
		eg.Enqueue(now, benchPacket())
		if eg.Len() > 256 {
			for eg.Len() > 32 {
				eg.Dequeue(now)
			}
		}
	}
}

// BenchmarkEgressDWRR measures the scheduler arbitration cost with three
// weighted queues.
func BenchmarkEgressDWRR(b *testing.B) {
	eg := queue.NewEgress([]int{2, 1, 1}, 0, nil)
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += 1200
		p := benchPacket()
		p.Class = uint8(i % 3)
		eg.Enqueue(now, p)
		if eg.Len() > 256 {
			for eg.Len() > 32 {
				eg.Dequeue(now)
			}
		}
	}
}
