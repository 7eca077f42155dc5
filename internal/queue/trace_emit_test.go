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
