package device

import (
	"testing"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
)

// sink records delivered packets with timestamps.
type sink struct {
	eng  *sim.Engine
	got  []*packet.Packet
	when []sim.Time
}

func (s *sink) Receive(p *packet.Packet) {
	s.got = append(s.got, p)
	s.when = append(s.when, s.eng.Now())
}
func (s *sink) Name() string { return "sink" }

func dataPkt(flow uint32, dst int32) *packet.Packet {
	return &packet.Packet{FlowID: flow, Dst: dst, Kind: packet.Data,
		PayloadLen: packet.MSS, ECN: packet.ECT}
}

func newPort(eng *sim.Engine, rate float64, prop sim.Time, dst Node) *Port {
	return NewPort(eng, queue.NewEgress(1, nil, 0, nil), rate, prop, dst)
}

func TestPortSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	// 10 Gbps, 3 µs propagation: a 1500 B packet takes 1.2 µs + 3 µs.
	pt := newPort(eng, 10e9, 3*sim.Microsecond, s)
	pt.Send(dataPkt(1, 0))
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("delivered %d packets", len(s.got))
	}
	want := pt.TxTime(1500) + 3*sim.Microsecond
	if s.when[0] != want {
		t.Errorf("arrival at %v, want %v", s.when[0], want)
	}
	if pt.TxTime(1500) != 1200*sim.Nanosecond {
		t.Errorf("TxTime(1500B@10G) = %v, want 1.2µs", pt.TxTime(1500))
	}
}

func TestPortBackToBackPacketsSpacedBySerialization(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	pt := newPort(eng, 10e9, 0, s)
	for i := 0; i < 5; i++ {
		pt.Send(dataPkt(1, 0))
	}
	eng.Run()
	if len(s.got) != 5 {
		t.Fatalf("delivered %d packets", len(s.got))
	}
	for i := 1; i < 5; i++ {
		gap := s.when[i] - s.when[i-1]
		if gap != pt.TxTime(1500) {
			t.Errorf("packet %d gap = %v, want %v", i, gap, pt.TxTime(1500))
		}
	}
	if pt.TxPackets != 5 || pt.TxBytes != 5*1500 {
		t.Errorf("TxPackets=%d TxBytes=%d", pt.TxPackets, pt.TxBytes)
	}
}

func TestPortPreservesOrder(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	pt := newPort(eng, 10e9, 5*sim.Microsecond, s)
	for i := 0; i < 20; i++ {
		p := dataPkt(1, 0)
		p.Seq = int64(i)
		pt.Send(p)
	}
	eng.Run()
	for i, p := range s.got {
		if p.Seq != int64(i) {
			t.Fatalf("reordered: position %d has seq %d", i, p.Seq)
		}
	}
}

func TestPortPanics(t *testing.T) {
	eng := sim.NewEngine()
	for i, f := range []func(){
		func() { NewPort(eng, nil, 10e9, 0, nil) },
		func() { NewPort(eng, queue.NewEgress(1, nil, 0, nil), 0, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSwitchForwardsPerFIB(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "sw")
	s1 := &sink{eng: eng}
	s2 := &sink{eng: eng}
	sw.AddRoute(1, newPort(eng, 10e9, 0, s1))
	sw.AddRoute(2, newPort(eng, 10e9, 0, s2))
	sw.Receive(dataPkt(1, 1))
	sw.Receive(dataPkt(2, 2))
	sw.Receive(dataPkt(3, 2))
	eng.Run()
	if len(s1.got) != 1 || len(s2.got) != 2 {
		t.Errorf("delivery counts: %d/%d", len(s1.got), len(s2.got))
	}
	if sw.RxPackets != 3 {
		t.Errorf("RxPackets = %d", sw.RxPackets)
	}
	if sw.Name() != "sw" {
		t.Error("name")
	}
}

func TestSwitchNoRoutePanics(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "sw")
	defer func() {
		if recover() == nil {
			t.Error("no panic on missing route")
		}
	}()
	sw.Receive(dataPkt(1, 99))
}

func TestSwitchECMPIsPerFlowAndBalanced(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, "sw")
	sinks := [4]*sink{}
	for i := range sinks {
		sinks[i] = &sink{eng: eng}
		sw.AddRoute(1, newPort(eng, 100e9, 0, sinks[i]))
	}
	// Per-flow: all packets of one flow take the same path.
	perFlow := map[uint32]int{}
	const flows = 400
	for f := uint32(0); f < flows; f++ {
		for k := 0; k < 3; k++ {
			sw.Receive(dataPkt(f, 1))
		}
	}
	eng.Run()
	total := 0
	for i, s := range sinks {
		for _, p := range s.got {
			if prev, seen := perFlow[p.FlowID]; seen && prev != i {
				t.Fatalf("flow %d split across paths %d and %d", p.FlowID, prev, i)
			}
			perFlow[p.FlowID] = i
		}
		total += len(s.got)
		// Balance: each of 4 paths should carry roughly a quarter.
		frac := float64(len(s.got)) / (3 * flows)
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("path %d carries %.0f%% of traffic", i, frac*100)
		}
	}
	if total != 3*flows {
		t.Errorf("delivered %d packets, want %d", total, 3*flows)
	}
}

type flowRecorder struct {
	pkts []*packet.Packet
	at   []sim.Time
}

func (f *flowRecorder) HandlePacket(now sim.Time, p *packet.Packet) {
	f.pkts = append(f.pkts, p)
	f.at = append(f.at, now)
}

func TestHostDemuxAndDelay(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	peer := NewHost(eng, 1)
	h.NIC = newPort(eng, 10e9, 0, peer)

	rec := &flowRecorder{}
	peer.Register(7, rec)

	h.SetFlowDelay(7, 50*sim.Microsecond)
	if h.FlowDelay(7) != 50*sim.Microsecond {
		t.Error("FlowDelay not stored")
	}
	if h.FlowDelay(8) != 0 {
		t.Error("default delay not zero")
	}

	h.Send(dataPkt(7, 1))
	h.Send(dataPkt(8, 1)) // unknown flow at peer: dropped silently
	eng.Run()

	if len(rec.pkts) != 1 {
		t.Fatalf("handler got %d packets", len(rec.pkts))
	}
	// Delay 50µs + serialization 1.2µs.
	want := 50*sim.Microsecond + 1200*sim.Nanosecond
	if rec.at[0] != want {
		t.Errorf("arrival at %v, want %v", rec.at[0], want)
	}
	if peer.RxPackets != 2 {
		t.Errorf("peer RxPackets = %d", peer.RxPackets)
	}
	if h.TxPackets != 2 {
		t.Errorf("host TxPackets = %d", h.TxPackets)
	}
	if h.Name() != "host0" {
		t.Error("name")
	}
	if h.Engine() != eng {
		t.Error("Engine()")
	}
}

func TestHostDuplicateRegisterPanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	h.Register(1, &flowRecorder{})
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate registration")
		}
	}()
	h.Register(1, &flowRecorder{})
}

func TestHostUnregister(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	rec := &flowRecorder{}
	h.Register(1, rec)
	h.Unregister(1)
	h.Receive(dataPkt(1, 0))
	if len(rec.pkts) != 0 {
		t.Error("unregistered handler still invoked")
	}
	h.Register(1, rec) // re-register after unregister must work
}

func TestHostNegativeDelayPanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	h.SetFlowDelay(1, -1)
}

func TestHostSendWithoutNICPanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	h.Send(dataPkt(1, 1))
}
