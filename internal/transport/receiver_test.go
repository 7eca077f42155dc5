package transport_test

import (
	"testing"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/transport"
)

// ackSink captures ACKs the receiver emits.
type ackSink struct {
	acks []*packet.Packet
}

func (s *ackSink) Receive(p *packet.Packet) {
	if p.Kind == packet.Ack {
		s.acks = append(s.acks, p)
	}
}
func (s *ackSink) Name() string { return "acksink" }

// newReceiverFixture builds a receiver on a host whose NIC dumps into an
// ackSink, so tests can inspect the exact ACK stream.
func newReceiverFixture(t *testing.T, cfg transport.Config) (*sim.Engine, *transport.Receiver, *ackSink) {
	t.Helper()
	eng := sim.NewEngine()
	host := device.NewHost(eng, 1)
	sink := &ackSink{}
	host.NIC = device.NewPort(eng, queue.NewEgress(1, nil, 0, nil), 100e9, 0, sink)
	r := transport.NewReceiver(eng, cfg, host, 7, 0)
	return eng, r, sink
}

// seg builds a data segment of the test flow.
func seg(seq int64, n int, ecn packet.ECN) *packet.Packet {
	return &packet.Packet{
		FlowID: 7, Src: 0, Dst: 1, Kind: packet.Data,
		Seq: seq, PayloadLen: int32(n), ECN: ecn, TS: sim.Microsecond,
	}
}

func TestReceiverPerPacketAcksEchoCEExactly(t *testing.T) {
	cfg := transport.DefaultConfig() // DelayedAckCount = 1
	eng, r, sink := newReceiverFixture(t, cfg)

	pattern := []packet.ECN{packet.ECT, packet.CE, packet.CE, packet.ECT, packet.CE}
	for i, e := range pattern {
		r.HandlePacket(eng.Now(), seg(int64(i)*1460, 1460, e))
	}
	eng.Run()

	if len(sink.acks) != len(pattern) {
		t.Fatalf("%d acks for %d packets", len(sink.acks), len(pattern))
	}
	for i, a := range sink.acks {
		wantECE := pattern[i] == packet.CE
		if a.ECE != wantECE {
			t.Errorf("ack %d: ECE=%v, want %v", i, a.ECE, wantECE)
		}
		if a.Seq != int64(i+1)*1460 {
			t.Errorf("ack %d: Seq=%d", i, a.Seq)
		}
	}
}

func TestReceiverDelayedAckBatches(t *testing.T) {
	cfg := transport.DefaultConfig()
	cfg.DelayedAckCount = 4
	eng, r, sink := newReceiverFixture(t, cfg)

	for i := 0; i < 8; i++ {
		r.HandlePacket(eng.Now(), seg(int64(i)*1460, 1460, packet.ECT))
	}
	eng.Run()

	if len(sink.acks) != 2 {
		t.Fatalf("%d acks for 8 packets with DelayedAckCount=4", len(sink.acks))
	}
	if sink.acks[0].Seq != 4*1460 || sink.acks[1].Seq != 8*1460 {
		t.Errorf("cumulative acks: %d, %d", sink.acks[0].Seq, sink.acks[1].Seq)
	}
}

func TestReceiverDelayedAckCEFlipForcesImmediateAck(t *testing.T) {
	// RFC 8257 §3.2: when the CE state changes with ACKs pending, the
	// receiver must immediately ACK with the *old* state so the sender's
	// marked-byte accounting stays exact.
	cfg := transport.DefaultConfig()
	cfg.DelayedAckCount = 8
	eng, r, sink := newReceiverFixture(t, cfg)

	r.HandlePacket(eng.Now(), seg(0, 1460, packet.ECT))
	r.HandlePacket(eng.Now(), seg(1460, 1460, packet.ECT))
	// CE flips: the two pending non-CE packets must be acked with ECE=false.
	r.HandlePacket(eng.Now(), seg(2*1460, 1460, packet.CE))
	eng.Run()

	if len(sink.acks) < 1 {
		t.Fatal("CE flip produced no immediate ACK")
	}
	first := sink.acks[0]
	if first.ECE {
		t.Error("flush ACK carries the new CE state; must carry the old")
	}
	if first.Seq != 2*1460 {
		t.Errorf("flush ACK covers %d bytes, want %d", first.Seq, 2*1460)
	}
}

func TestReceiverDelayedAckTimeoutFlushes(t *testing.T) {
	cfg := transport.DefaultConfig()
	cfg.DelayedAckCount = 4
	cfg.DelayedAckTimeout = 100 * sim.Microsecond
	eng, r, sink := newReceiverFixture(t, cfg)

	r.HandlePacket(eng.Now(), seg(0, 1460, packet.ECT))
	eng.Run() // nothing else arrives; the delack timer must fire

	if len(sink.acks) != 1 {
		t.Fatalf("%d acks after timeout", len(sink.acks))
	}
	if sink.acks[0].Seq != 1460 {
		t.Error("timeout ACK not cumulative")
	}
}

func TestReceiverOutOfOrderAndDuplicates(t *testing.T) {
	cfg := transport.DefaultConfig()
	eng, r, sink := newReceiverFixture(t, cfg)

	r.HandlePacket(eng.Now(), seg(0, 1460, packet.ECT))
	r.HandlePacket(eng.Now(), seg(2*1460, 1460, packet.ECT)) // gap at 1460
	r.HandlePacket(eng.Now(), seg(2*1460, 1460, packet.ECT)) // duplicate OOO
	if r.RcvNxt() != 1460 {
		t.Fatalf("RcvNxt = %d before hole filled", r.RcvNxt())
	}
	r.HandlePacket(eng.Now(), seg(1460, 1460, packet.ECT)) // fill the hole
	if r.RcvNxt() != 3*1460 {
		t.Fatalf("RcvNxt = %d after hole filled, want %d", r.RcvNxt(), 3*1460)
	}
	r.HandlePacket(eng.Now(), seg(0, 1460, packet.ECT)) // fully old segment
	eng.Run()

	if r.OutOfOrder != 2 {
		t.Errorf("OutOfOrder = %d, want 2", r.OutOfOrder)
	}
	if r.DupPackets != 1 {
		t.Errorf("DupPackets = %d, want 1 (the fully-old segment)", r.DupPackets)
	}
	// Every arrival triggered an ACK (per-packet mode; OOO sends dupacks).
	if len(sink.acks) != 5 {
		t.Errorf("acks = %d, want 5", len(sink.acks))
	}
	// The dupack for the gap acked 1460, not beyond.
	if sink.acks[1].Seq != 1460 {
		t.Errorf("dupack Seq = %d, want 1460", sink.acks[1].Seq)
	}
}

func TestReceiverCloseStopsHandling(t *testing.T) {
	cfg := transport.DefaultConfig()
	eng, r, sink := newReceiverFixture(t, cfg)
	r.HandlePacket(eng.Now(), seg(0, 1460, packet.ECT))
	r.Close()
	eng.Run()
	n := len(sink.acks)
	// After Close the host no longer routes to the receiver; direct calls
	// would be a harness bug, but Close must at least cancel timers and
	// unregister so re-registration works.
	r2 := transport.NewReceiver(eng, cfg, nil2host(t, eng, sink), 7, 0)
	_ = r2
	_ = n
}

// nil2host builds a fresh host for re-registration checks.
func nil2host(t *testing.T, eng *sim.Engine, sink *ackSink) *device.Host {
	t.Helper()
	h := device.NewHost(eng, 2)
	h.NIC = device.NewPort(eng, queue.NewEgress(1, nil, 0, nil), 100e9, 0, sink)
	return h
}
