package queue_test

import (
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/bench"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

func benchPacket() *packet.Packet {
	return &packet.Packet{Kind: packet.Data, PayloadLen: packet.MSS, ECN: packet.ECT}
}

// BenchmarkFIFOPushPop measures the raw buffer cost per packet.
func BenchmarkFIFOPushPop(b *testing.B) {
	f := queue.NewFIFO()
	p := benchPacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Push(p)
		if f.Len() > 512 {
			for f.Len() > 64 {
				f.Pop()
			}
		}
	}
}

// BenchmarkEgressFIFO measures the full egress path with a sojourn AQM;
// the body lives in internal/bench so `go test -bench` and the
// root package's TestAllocBaseline gate measure identical code.
func BenchmarkEgressFIFO(b *testing.B) { bench.EgressFIFO(b) }

// BenchmarkEgressFIFOTracedNop measures the same path as BenchmarkEgressFIFO
// with a no-op tracer attached: the full cost of event construction and the
// interface call, without any consumer work. Compare against the untraced
// benchmark to see the instrumentation ceiling; a nil tracer (the default)
// costs only the branch.
func BenchmarkEgressFIFOTracedNop(b *testing.B) {
	eg := queue.NewEgress(1, nil, 0, func(int) aqm.AQM {
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
	eg := queue.NewEgress(3, queue.NewDWRR([]int{2, 1, 1}), 0, nil)
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
