package device

import (
	"fmt"
	"testing"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
)

// countingFlow counts its packets; with quit set it unregisters itself
// from inside HandlePacket on the first one, as Sender.finish does.
type countingFlow struct {
	h    *Host
	id   uint32
	quit bool
	got  int
}

func (c *countingFlow) HandlePacket(sim.Time, *packet.Packet) {
	c.got++
	if c.quit {
		c.h.Unregister(c.id)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestHostDemux drives the flow table through its whole contract at sizes
// on both sides of the inline capacity: 1 and 2 (a scale-cell host), 9 (the
// registration that moves the host to the map) and 1,000 (an incast
// receiver).
func TestHostDemux(t *testing.T) {
	for _, n := range []int{1, 2, hostInlineFlows + 1, 1000} {
		t.Run(fmt.Sprintf("flows=%d", n), func(t *testing.T) {
			h := NewHost(sim.NewEngine(), 0)
			flows := make([]*countingFlow, n)
			for i := range flows {
				flows[i] = &countingFlow{h: h, id: uint32(100 + i)}
				h.Register(flows[i].id, flows[i])
			}
			// deliver sends one packet to every flow id and checks who got it.
			round := 0
			deliver := func(live func(i int) bool) {
				t.Helper()
				round++
				before := make([]int, n)
				for i, f := range flows {
					before[i] = f.got
					h.Receive(dataPkt(f.id, 0))
				}
				for i, f := range flows {
					want := before[i]
					if live(i) {
						want++
					}
					if f.got != want {
						t.Fatalf("round %d: flow %d handled %d packets, want %d", round, i, f.got, want)
					}
				}
			}
			all := func(int) bool { return true }
			deliver(all)

			mustPanic(t, "duplicate Register", func() { h.Register(flows[n/2].id, flows[n/2]) })
			mustPanic(t, "Register of a nil handler", func() { h.Register(99, nil) })

			// An unknown flow is counted and dropped, and disturbs nobody.
			rx := h.Tally.RxPackets
			h.Receive(dataPkt(7, 0))
			if h.Tally.RxPackets != rx+1 {
				t.Errorf("unknown flow: RxPackets %d, want %d", h.Tally.RxPackets, rx+1)
			}
			h.Unregister(7) // unknown: no-op
			deliver(all)

			// Unregister the first, a middle and the last entry, one at a
			// time; everyone else keeps receiving, and each can come back.
			gone := map[int]bool{}
			for _, i := range []int{0, n / 2, n - 1} {
				h.Unregister(flows[i].id)
				gone[i] = true
				deliver(func(i int) bool { return !gone[i] })
			}
			for i := range gone {
				h.Register(flows[i].id, flows[i])
			}
			deliver(all)

			// Every other flow unregisters itself while handling a packet.
			for i, f := range flows {
				f.quit = i%2 == 0
			}
			deliver(all) // the quitters still see the packet that makes them quit
			deliver(func(i int) bool { return i%2 == 1 })

			// Emptied completely, the host starts over on its inline entries.
			for _, f := range flows {
				h.Unregister(f.id)
			}
			if h.nflows != 0 || h.spill != nil {
				t.Errorf("empty host holds %d inline entries and spill %v", h.nflows, h.spill)
			}
			h.Register(flows[0].id, flows[0])
			if h.nflows != 1 || h.spill != nil {
				t.Errorf("first flow after emptying: %d inline entries, spill %v", h.nflows, h.spill)
			}
		})
	}
}

// TestHostDemuxRepresentation: up to hostInlineFlows flows a host allocates
// nothing for its table; one more moves all of them to the map.
func TestHostDemuxRepresentation(t *testing.T) {
	h := NewHost(sim.NewEngine(), 0)
	for i := 0; i < hostInlineFlows; i++ {
		h.Register(uint32(i+1), &countingFlow{})
	}
	if h.nflows != hostInlineFlows || h.spill != nil {
		t.Fatalf("%d flows: %d inline, spill %v", hostInlineFlows, h.nflows, h.spill)
	}
	h.Register(uint32(hostInlineFlows+1), &countingFlow{})
	if h.nflows != 0 || len(h.spill) != hostInlineFlows+1 {
		t.Fatalf("%d flows: %d inline, %d in the map", hostInlineFlows+1, h.nflows, len(h.spill))
	}
	for _, ph := range h.handlers {
		if ph != nil {
			t.Fatal("inline entry still references a handler after the move")
		}
	}
}

// TestHostFlowDelaysAllocatedOnFirstWrite: a host nobody called
// SetFlowDelay on holds no map — 100k empty maps on a scale cell, and a
// lookup per packet sent — and still answers with the default delay.
func TestHostFlowDelaysAllocatedOnFirstWrite(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	s := &sink{eng: eng}
	h.NIC = newPort(eng, 10e9, 0, s)
	h.Send(dataPkt(1, 1))
	eng.Run()
	if h.flowDelays != nil {
		t.Fatal("host without SetFlowDelay allocated its flow-delay map")
	}
	if len(s.got) != 1 || h.FlowDelay(1) != 0 {
		t.Fatalf("undelayed send: %d delivered, FlowDelay %v", len(s.got), h.FlowDelay(1))
	}
	h.DefaultDelay = 2 * sim.Microsecond
	h.SetFlowDelay(1, 5*sim.Microsecond)
	if h.FlowDelay(1) != 5*sim.Microsecond || h.FlowDelay(2) != 2*sim.Microsecond {
		t.Errorf("FlowDelay = %v / %v, want 5µs / 2µs", h.FlowDelay(1), h.FlowDelay(2))
	}
}

// benchFlow is the cheapest possible handler, so that BenchmarkHostDemux
// times the host and not the flow.
type benchFlow struct{ got int }

func (f *benchFlow) HandlePacket(sim.Time, *packet.Packet) { f.got++ }

// BenchmarkHostDemux measures Host.Receive's lookup and dispatch with 2
// registered flows (a scale-cell host: its sender and its receiver) and
// with 512 (an incast receiver), packets cycling over all flows.
func BenchmarkHostDemux(b *testing.B) {
	for _, n := range []int{2, 512} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			h := NewHost(sim.NewEngine(), 0)
			f := &benchFlow{}
			for i := 0; i < n; i++ {
				h.Register(uint32(1000+i), f)
			}
			p := dataPkt(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.FlowID = uint32(1000 + i&(n-1)) // n is a power of two
				h.Receive(p)
			}
			if f.got != b.N {
				b.Fatalf("handled %d of %d packets", f.got, b.N)
			}
		})
	}
}
