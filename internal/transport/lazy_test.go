package transport

import (
	"testing"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
)

// discard swallows the ACKs a receiver under test emits.
type discard struct{}

func (discard) Receive(*packet.Packet) {}
func (discard) Name() string           { return "discard" }

// TestReceiverOOOAllocatedOnFirstWrite: a receiver that only ever saw
// in-order data holds no reordering map — one per flow endpoint, 100k of
// them on a scale cell, looked up on every segment — and the first segment
// that does arrive early is buffered and drained as before.
func TestReceiverOOOAllocatedOnFirstWrite(t *testing.T) {
	eng := sim.NewEngine()
	host := device.NewHost(eng, 1)
	host.NIC = device.NewPort(eng, 100e9, 0, discard{})
	r := NewReceiver(eng, DefaultConfig(), host, 7, 0)
	deliver := func(segment int64) {
		r.HandlePacket(eng.Now(), &packet.Packet{FlowID: 7, Dst: 1, Kind: packet.Data,
			Seq: segment * packet.MSS, PayloadLen: packet.MSS, ECN: packet.ECT})
	}
	for s := int64(0); s < 4; s++ {
		deliver(s)
	}
	if r.ooo != nil || r.BytesInOrder != 4*packet.MSS {
		t.Fatalf("after 4 in-order segments: ooo %v, rcvNxt %d", r.ooo, r.BytesInOrder)
	}
	deliver(5)
	deliver(6)
	if len(r.ooo) != 2 || r.BytesInOrder != 4*packet.MSS || r.OutOfOrder != 2 {
		t.Fatalf("after segments 5 and 6 arrived early: ooo %v, rcvNxt %d, OutOfOrder %d", r.ooo, r.BytesInOrder, r.OutOfOrder)
	}
	deliver(4)
	if len(r.ooo) != 0 || r.BytesInOrder != 7*packet.MSS {
		t.Fatalf("after the hole filled: ooo %v, rcvNxt %d, want empty and %d", r.ooo, r.BytesInOrder, 7*packet.MSS)
	}
	eng.Run()
	if r.AcksSent != 7 {
		t.Errorf("%d ACKs for 7 segments", r.AcksSent)
	}
}
