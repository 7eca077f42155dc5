package packet

import (
	"strings"
	"testing"
	"unsafe"

	"ecnsharp/internal/sim"
)

func TestSize(t *testing.T) {
	p := &Packet{Kind: Data, PayloadLen: MSS}
	if p.Size() != MTU {
		t.Errorf("full segment size = %d, want %d", p.Size(), MTU)
	}
	ack := &Packet{Kind: Ack}
	if ack.Size() != HeaderSize {
		t.Errorf("ack size = %d, want %d", ack.Size(), HeaderSize)
	}
}

// TestPacketLayout: a packet is one cache line — 64 bytes, in the
// allocator's 64-byte size class, whose objects start on a line — so a
// packet that arrives cold costs a hop or an endpoint one miss, whatever
// field it reads.
func TestPacketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 64 {
		t.Errorf("Packet is %d bytes, want 64: one cache line", size)
	}
	var pl Pool
	for i := 0; i < 1000; i++ {
		if p := pl.Get(); uintptr(unsafe.Pointer(p))%64 != 0 {
			t.Fatalf("packet %d at %p spans two cache lines", i, p)
		}
	}
}

func TestSojournTime(t *testing.T) {
	p := &Packet{EnqueuedAt: 100 * sim.Microsecond}
	if got := p.SojournTime(130 * sim.Microsecond); got != 30*sim.Microsecond {
		t.Errorf("sojourn = %v, want 30µs", got)
	}
	if got := p.SojournTime(100 * sim.Microsecond); got != 0 {
		t.Errorf("zero sojourn = %v", got)
	}
}

func TestECNStrings(t *testing.T) {
	cases := map[ECN]string{NotECT: "NotECT", ECT: "ECT", CE: "CE"}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
	}
	if !strings.Contains(ECN(7).String(), "7") {
		t.Error("unknown ECN codepoint string")
	}
}

func TestKindStrings(t *testing.T) {
	if Data.String() != "DATA" || Ack.String() != "ACK" {
		t.Error("Kind strings wrong")
	}
}

func TestPacketString(t *testing.T) {
	d := &Packet{FlowID: 7, Src: 1, Dst: 2, Kind: Data, Seq: 1460, PayloadLen: 1460, ECN: ECT}
	s := d.String()
	for _, want := range []string{"DATA", "flow=7", "1->2", "seq=1460", "ECT"} {
		if !strings.Contains(s, want) {
			t.Errorf("data string %q missing %q", s, want)
		}
	}
	a := &Packet{FlowID: 7, Src: 2, Dst: 1, Kind: Ack, Seq: 2920, ECE: true}
	s = a.String()
	for _, want := range []string{"ACK", "ack=2920", "ece=true"} {
		if !strings.Contains(s, want) {
			t.Errorf("ack string %q missing %q", s, want)
		}
	}
}

func TestFramingConstants(t *testing.T) {
	// The paper reasons in 1.5 KB packets; our MTU must match.
	if MTU != 1500 {
		t.Errorf("MTU = %d, want 1500", MTU)
	}
	if MSS+HeaderSize != MTU {
		t.Error("MSS + header != MTU")
	}
}
