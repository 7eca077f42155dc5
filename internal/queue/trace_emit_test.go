package queue

import (
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

func TestEgressTraceEnqueueDequeue(t *testing.T) {
	rec := trace.NewRingRecorder(16)
	eg := NewEgress(1, nil, 0, nil)
	if eg.TracePort() != -1 {
		t.Errorf("TracePort before attach = %d, want -1", eg.TracePort())
	}
	eg.SetTracer(rec, 4)

	eg.Enqueue(10*sim.Microsecond, pkt(1500))
	eg.Enqueue(12*sim.Microsecond, pkt(100))
	eg.Dequeue(35 * sim.Microsecond)

	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	e0 := evs[0]
	if e0.Type != trace.Enqueue || e0.At != int64(10*sim.Microsecond) ||
		e0.Port != 4 || e0.Queue != 0 ||
		e0.QueuePackets != 1 || e0.QueueBytes != 1500 || e0.Size != 1500 {
		t.Errorf("first enqueue event = %+v", e0)
	}
	if e1 := evs[1]; e1.QueuePackets != 2 || e1.QueueBytes != 1600 {
		t.Errorf("second enqueue occupancy = %d pkts / %d bytes, want 2/1600",
			e1.QueuePackets, e1.QueueBytes)
	}
	e2 := evs[2]
	if e2.Type != trace.Dequeue || e2.Dur != int64(25*sim.Microsecond) {
		t.Errorf("dequeue event = %+v, want sojourn 25µs", e2)
	}
	if e2.QueuePackets != 1 || e2.QueueBytes != 100 {
		t.Errorf("dequeue occupancy = %d pkts / %d bytes, want post-dequeue 1/100",
			e2.QueuePackets, e2.QueueBytes)
	}
}

// TestEgressTraceSeq: a data packet's enqueue and dequeue events carry its
// Seq; an ACK's carry seq 0, though the ACK's Seq field holds its
// cumulative acknowledgement.
func TestEgressTraceSeq(t *testing.T) {
	rec := trace.NewRingRecorder(16)
	eg := NewEgress(1, nil, 0, nil)
	eg.SetTracer(rec, 0)
	data := pkt(1500)
	data.Seq = 2920
	ack := &packet.Packet{Kind: packet.Ack, Seq: 4380}
	eg.Enqueue(0, data)
	eg.Enqueue(0, ack)
	eg.Dequeue(sim.Microsecond)
	eg.Dequeue(2 * sim.Microsecond)
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, want := range []struct {
		typ trace.Type
		seq int64
	}{{trace.Enqueue, 2920}, {trace.Enqueue, 0}, {trace.Dequeue, 2920}, {trace.Dequeue, 0}} {
		if evs[i].Type != want.typ || evs[i].Seq != want.seq {
			t.Errorf("event %d: %v seq %d, want %v seq %d", i, evs[i].Type, evs[i].Seq, want.typ, want.seq)
		}
	}
}

func TestEgressTraceDrop(t *testing.T) {
	rec := trace.NewRingRecorder(16)
	eg := NewEgress(1, nil, 1500, nil)
	eg.SetTracer(rec, 0)
	eg.Enqueue(0, pkt(1500))
	if eg.Enqueue(sim.Microsecond, pkt(1500)) {
		t.Fatal("second packet admitted beyond the buffer bound")
	}
	evs := rec.Events()
	if len(evs) != 2 || evs[1].Type != trace.Drop {
		t.Fatalf("events = %+v, want enqueue then drop", evs)
	}
	// A drop leaves occupancy untouched: the event reports the state the
	// packet bounced off of.
	if evs[1].QueuePackets != 1 || evs[1].QueueBytes != 1500 {
		t.Errorf("drop occupancy = %d/%d, want 1/1500",
			evs[1].QueuePackets, evs[1].QueueBytes)
	}
}

// TestEgressTraceMarkKinds drives an ECN♯ queue into both marking regimes
// and checks the emitted ECNMark events attribute each kind correctly.
func TestEgressTraceMarkKinds(t *testing.T) {
	params := core.Params{
		InsTarget:   100 * sim.Microsecond,
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 100 * sim.Microsecond,
	}

	// Sojourn above InsTarget: instantaneous.
	marks := trace.MaskOf(trace.ECNMark)
	rec := trace.NewRingRecorder(16)
	eg := NewEgress(1, nil, 0, func(int) aqm.AQM { return aqm.MustNewECNSharp(params) })
	eg.SetTracer(trace.NewFilter(rec, marks, 1), 0)
	eg.Enqueue(0, pkt(1500))
	eg.Dequeue(200 * sim.Microsecond)
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Mark != trace.MarkInstantaneous {
		t.Fatalf("events = %+v, want one instantaneous mark", evs)
	}

	// Sojourn between PstTarget and InsTarget, sustained past PstInterval:
	// persistent (Algorithm 1's first conservative mark).
	rec = trace.NewRingRecorder(16)
	eg = NewEgress(1, nil, 0, func(int) aqm.AQM { return aqm.MustNewECNSharp(params) })
	eg.SetTracer(trace.NewFilter(rec, marks, 1), 0)
	for i := 0; i < 4; i++ {
		at := sim.Time(i) * 60 * sim.Microsecond
		eg.Enqueue(at, pkt(1500))
		eg.Dequeue(at + 50*sim.Microsecond) // sojourn 50µs, above pst_target
	}
	evs = rec.Events()
	if len(evs) == 0 {
		t.Fatal("no mark after sustained above-target sojourn")
	}
	for _, e := range evs {
		if e.Mark != trace.MarkPersistent {
			t.Errorf("mark kind = %v, want persistent", e.Mark)
		}
	}
}

// TestEgressCountsMarkKinds: untraced, an egress still attributes every
// mark it applies to a kind, asked of the AQM, and the kinds sum to the
// marks; a mark the AQM decides on a NotECT packet is neither.
func TestEgressCountsMarkKinds(t *testing.T) {
	params := core.Params{
		InsTarget:   100 * sim.Microsecond,
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 100 * sim.Microsecond,
	}
	eg := NewEgress(1, nil, 0, func(int) aqm.AQM { return aqm.MustNewECNSharp(params) })
	for i, c := range []struct {
		sojournUS sim.Time
		ecn       packet.ECN
	}{{200, packet.ECT}, {50, packet.ECT}, {50, packet.ECT}, {50, packet.ECT}, {200, packet.NotECT}, {200, packet.ECT}} {
		at := sim.Time(i) * 60 * sim.Microsecond
		p := pkt(1500)
		p.ECN = c.ecn
		eg.Enqueue(at, p)
		eg.Dequeue(at + c.sojournUS*sim.Microsecond)
	}
	var sum int64
	for _, n := range eg.MarkKinds {
		sum += n
	}
	if sum != eg.EnqMarks+eg.DeqMarks || eg.MarkKinds[trace.MarkInstantaneous] != 2 || eg.MarkKinds[trace.MarkUnknown] != 0 {
		t.Errorf("mark kinds %v, %d marks applied: want 2 instantaneous and the kinds summing to the marks",
			eg.MarkKinds, eg.EnqMarks+eg.DeqMarks)
	}
	bare := NewEgress(1, nil, 0, func(int) aqm.AQM { return aqm.NewTCN(0) })
	bare.Enqueue(0, pkt(1500))
	bare.Dequeue(sim.Microsecond)
	if bare.DeqMarks != 1 || bare.MarkKinds[trace.MarkInstantaneous] != 1 {
		t.Errorf("TCN mark counted as %v", bare.MarkKinds)
	}
}

func TestEgressTraceSkipsNotECTMark(t *testing.T) {
	rec := trace.NewRingRecorder(16)
	eg := NewEgress(1, nil, 0, func(int) aqm.AQM {
		return aqm.NewTCN(0) // would mark every packet
	})
	eg.SetTracer(rec, 0)
	p := pkt(1500)
	p.ECN = packet.NotECT
	eg.Enqueue(0, p)
	eg.Dequeue(100 * sim.Microsecond)
	for _, e := range rec.Events() {
		if e.Type == trace.ECNMark {
			t.Fatalf("mark event for a NotECT packet: %+v", e)
		}
	}
}

func TestEgressHeadAge(t *testing.T) {
	eg := NewEgress(2, nil, 0, nil)
	if eg.HeadAge(50*sim.Microsecond) != 0 {
		t.Error("HeadAge on an idle egress not zero")
	}
	young := pkt(100)
	young.Class = 1
	eg.Enqueue(10*sim.Microsecond, pkt(100)) // queue 0, oldest
	eg.Enqueue(20*sim.Microsecond, young)    // queue 1
	if got := eg.HeadAge(30 * sim.Microsecond); got != 20*sim.Microsecond {
		t.Errorf("HeadAge = %v, want 20µs (oldest head across queues)", got)
	}
}
