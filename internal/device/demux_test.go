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

// TestHostDemux drives the flow table through its whole contract at
// sizes around its capacity: 1 and 2 (a scale-cell host), 9 (a sweep
// host's peak), 43 (the registration that outgrows the smallest table) and
// 1,000 (an incast receiver).
func TestHostDemux(t *testing.T) {
	for _, n := range []int{1, 2, 9, 2*demuxMinSlots/3 + 1, 1000} {
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

			// Emptied completely, the table lets go of its arrays and
			// starts over at its smallest.
			for _, f := range flows {
				h.Unregister(f.id)
			}
			if d := h.Demux; d.n != 0 || d.keys != nil || d.handlers != nil {
				t.Errorf("empty table holds %d entries in %d key and %d handler slots", d.n, len(d.keys), len(d.handlers))
			}
			h.Register(flows[0].id, flows[0])
			if got := len(h.Demux.keys); got != demuxMinSlots {
				t.Errorf("first flow after emptying: %d slots, want %d", got, demuxMinSlots)
			}
		})
	}

	// Two hosts of one domain register the same flow id, its two ends:
	// each receives only its own packets, and unregistering one end
	// leaves the other receiving.
	t.Run("one-flow-two-hosts", func(t *testing.T) {
		eng, tally, dmx := sim.NewEngine(), new(HostTally), new(Demux)
		var hosts [2]Host
		var ends [2]countingFlow
		for i := range hosts {
			hosts[i].Init(eng, 10+i, tally, dmx)
			ends[i] = countingFlow{h: &hosts[i], id: 5}
			hosts[i].Register(5, &ends[i])
		}
		for i := range hosts {
			hosts[i].Receive(dataPkt(5, 0))
		}
		if ends[0].got != 1 || ends[1].got != 1 {
			t.Fatalf("ends handled %d and %d packets, want 1 and 1", ends[0].got, ends[1].got)
		}
		hosts[0].Unregister(5)
		for i := range hosts {
			hosts[i].Receive(dataPkt(5, 0))
		}
		if ends[0].got != 1 || ends[1].got != 2 {
			t.Fatalf("after unregistering one end: %d and %d packets, want 1 and 2", ends[0].got, ends[1].got)
		}
		if dmx.n != 1 {
			t.Errorf("the domain's table holds %d entries, want 1", dmx.n)
		}
	})
}

// TestDemuxCapacityFollowsLiveCount: a domain's table doubles past
// two-thirds load, shrinks to a quarter below an eighth, never goes below
// 64 slots and holds no arrays when empty — through growth to 2,048 slots
// and back.
func TestDemuxCapacityFollowsLiveCount(t *testing.T) {
	eng, tally, dmx := sim.NewEngine(), new(HostTally), new(Demux)
	hosts := make([]Host, 10)
	for i := range hosts {
		hosts[i].Init(eng, i, tally, dmx)
	}
	const flows = 1000
	key := func(i int) (*Host, uint32) { return &hosts[i%len(hosts)], uint32(i / len(hosts)) }
	check := func(live, slots int) {
		t.Helper()
		if dmx.n != live || len(dmx.keys) != slots || len(dmx.handlers) != slots {
			t.Fatalf("%d live: %d entries in %d key and %d handler slots, want %d slots",
				live, dmx.n, len(dmx.keys), len(dmx.handlers), slots)
		}
	}
	check(0, 0)
	grow := map[int]int{1: 64, 42: 64, 43: 128, 85: 128, 86: 256, 170: 256, 171: 512, 341: 512, 342: 1024, 682: 1024, 683: 2048, flows: 2048}
	f := &countingFlow{}
	for i := 0; i < flows; i++ {
		h, id := key(i)
		h.Register(id, f)
		if slots, ok := grow[i+1]; ok {
			check(i+1, slots)
		}
	}
	shrink := map[int]int{256: 2048, 255: 512, 64: 512, 63: 128, 16: 128, 15: 64, 1: 64, 0: 0}
	for i := flows - 1; i >= 0; i-- {
		h, id := key(i)
		h.Unregister(id)
		if slots, ok := shrink[i]; ok {
			check(i, slots)
		}
	}
	// Every lookup on the released table misses, and it grows again.
	if hosts[0].handler(0) != nil {
		t.Fatal("released table still answers")
	}
	hosts[0].Register(0, f)
	check(1, demuxMinSlots)
}

// TestHostFlowDelaysAllocatedOnFirstWrite: a host nobody called
// SetFlowDelay on holds no map — 100k empty maps on a scale cell, and a
// lookup per packet sent — and still answers with the default delay.
func TestHostFlowDelaysAllocatedOnFirstWrite(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	s := &sink{eng: eng}
	h.NIC = NewPort(eng, 10e9, 0, s)
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

// blockHost is a host at the stride a topology lays hosts out at: each
// sits in a block beside the two 256-byte port blocks of its access link.
type blockHost struct {
	Host
	_ [2 * 256]byte
}

// BenchmarkHostDemux measures Host.Receive's lookup and dispatch, packets
// cycling over all flows: on one host with 2 registered flows (a
// scale-cell host: its sender and its receiver), 12 (a sweep host's peak)
// and 512 (an incast receiver), and on the 160 hosts of a 10k-tier leaf
// domain with 2 flows each, in blocks as a topology lays them out,
// visited in turn.
func BenchmarkHostDemux(b *testing.B) {
	for _, c := range []struct{ hosts, flows int }{{1, 2}, {1, 12}, {1, 512}, {160, 2}} {
		name := fmt.Sprintf("flows=%d", c.flows)
		if c.hosts > 1 {
			name = fmt.Sprintf("hosts=%d/%s", c.hosts, name)
		}
		b.Run(name, func(b *testing.B) {
			eng, tally, dmx := sim.NewEngine(), new(HostTally), new(Demux)
			hosts := make([]blockHost, c.hosts)
			f := &benchFlow{}
			// The packets to deliver, in turn: host k's flows before host
			// k+1's.
			type visit struct {
				h    *Host
				flow uint32
			}
			var visits []visit
			for k := range hosts {
				h := &hosts[k].Host
				h.Init(eng, k, tally, dmx)
				for i := 0; i < c.flows; i++ {
					id := uint32(1000 + c.flows*k + i)
					h.Register(id, f)
					visits = append(visits, visit{h, id})
				}
			}
			p := dataPkt(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				v := visits[j]
				if j++; j == len(visits) {
					j = 0
				}
				p.FlowID = v.flow
				v.h.Receive(p)
			}
			if f.got != b.N {
				b.Fatalf("handled %d of %d packets", f.got, b.N)
			}
		})
	}
}

// fuzzDemux is FuzzHostDemux's world: three hosts of one domain sharing a
// Demux, and the reference the table must agree with after every step.
type fuzzDemux struct {
	t     *testing.T
	hosts [3]Host
	ref   map[[2]uint32]PacketHandler
}

// fuzzFlowIDs are the flow ids FuzzHostDemux draws from: small ones, ids
// one host apart, and the extremes of the 32 bits.
var fuzzFlowIDs = [...]uint32{0, 1, 2, 3, 5, 8, 13, 160, 161, 320, 1000, 1001, 1 << 16, 1<<31 - 1, 1 << 31, 1<<32 - 1}

// fuzzFlow is a flow of FuzzHostDemux: on every packet it counts, then
// unregisters its victim, if any — itself, the other end of its flow, or
// any (host, flow) — from inside HandlePacket.
type fuzzFlow struct {
	w          *fuzzDemux
	got        int
	victim     *Host
	victimFlow uint32
}

func (f *fuzzFlow) HandlePacket(sim.Time, *packet.Packet) {
	f.got++
	if f.victim != nil {
		f.w.unregister(f.victim, f.victimFlow)
	}
}

func (w *fuzzDemux) key(h *Host, flow uint32) [2]uint32 { return [2]uint32{uint32(h.ID), flow} }

func (w *fuzzDemux) unregister(h *Host, flow uint32) {
	h.Unregister(flow)
	delete(w.ref, w.key(h, flow))
}

// check compares every (host, flow) pair against the reference, and the
// table's size against its bounds.
func (w *fuzzDemux) check(step int) {
	t := w.t
	t.Helper()
	for i := range w.hosts {
		h := &w.hosts[i]
		for _, f := range fuzzFlowIDs {
			if got, want := h.handler(f), w.ref[w.key(h, f)]; got != want {
				t.Fatalf("step %d: host %d flow %d: handler %v, want %v", step, h.ID, f, got, want)
			}
		}
	}
	d := w.hosts[0].Demux
	slots := len(d.keys)
	switch {
	case d.n != len(w.ref):
		t.Fatalf("step %d: table counts %d entries, reference holds %d", step, d.n, len(w.ref))
	case len(d.handlers) != slots:
		t.Fatalf("step %d: %d key slots but %d handler slots", step, slots, len(d.handlers))
	case d.n == 0 && (d.keys != nil || d.handlers != nil):
		t.Fatalf("step %d: empty table holds arrays of %d slots", step, slots)
	case d.n > 0 && (slots < demuxMinSlots || slots&(slots-1) != 0):
		t.Fatalf("step %d: %d slots, want a power of two of at least %d", step, slots, demuxMinSlots)
	case 3*d.n > 2*slots:
		t.Fatalf("step %d: %d entries in %d slots, above two-thirds load", step, d.n, slots)
	case slots > demuxMinSlots && 8*d.n < slots:
		t.Fatalf("step %d: %d entries in %d slots, below an eighth", step, d.n, slots)
	}
}

// FuzzHostDemux decodes bytes into Register, Unregister and Receive calls
// on three hosts that share one Demux, host ids 0, 1 and the largest, and
// checks each against a map keyed by (host, flow). Three bytes make a
// step: the operation, the (host, flow) it names, and for a registration
// what the new handler unregisters whenever it handles a packet.
func FuzzHostDemux(f *testing.F) {
	// Both ends of one flow id on two hosts: register both, deliver to
	// both, unregister one end, deliver again.
	f.Add([]byte{0, 4*3 + 0, 0, 0, 4*3 + 1, 0, 2, 4*3 + 0, 0, 2, 4*3 + 1, 0, 1, 4*3 + 0, 0, 2, 4*3 + 1, 0, 2, 4*3 + 0, 0})
	// A handler that unregisters itself, one that unregisters the other
	// end of its flow, and one that unregisters another host's flow
	// (byte 3k+h names host h's flow fuzzFlowIDs[k]).
	f.Add([]byte{
		0, 0, 1, 2, 0, 0, // host 0 flow 0 quits on its first packet
		0, 0, 0, 2, 0, 0, // and can register again
		0, 3, 2, 0, 4, 0, 2, 3, 0, 2, 4, 0, // host 0 flow 1 unregisters host 1's end
		0, 4, 0, 0, 6, 4<<2 | 3, 2, 6, 0, 2, 4, 0, // host 0 flow 2 unregisters host 1 flow 1
	})
	// Enough registrations to grow past the smallest table, then the
	// removals that shrink it and release it.
	var grow []byte
	for k := 0; k < 3*len(fuzzFlowIDs); k++ {
		grow = append(grow, 0, byte(k), 0)
	}
	for k := 0; k < 3*len(fuzzFlowIDs); k++ {
		grow = append(grow, 1, byte(k), 0, 2, byte(k+1), 0)
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := &fuzzDemux{t: t, ref: map[[2]uint32]PacketHandler{}}
		eng, tally, dmx := sim.NewEngine(), new(HostTally), new(Demux)
		for i, id := range []int{0, 1, 1<<31 - 1} {
			w.hosts[i].Init(eng, id, tally, dmx)
		}
		// pair decodes a byte into a (host, flow) pair.
		pair := func(b byte) (*Host, uint32) {
			return &w.hosts[int(b)%len(w.hosts)], fuzzFlowIDs[int(b)/len(w.hosts)%len(fuzzFlowIDs)]
		}
		for step := 0; 3*step+2 < len(ops); step++ {
			op, arg, how := ops[3*step], ops[3*step+1], ops[3*step+2]
			h, flow := pair(arg)
			k := w.key(h, flow)
			switch op % 3 {
			case 0:
				fl := &fuzzFlow{w: w}
				switch how % 4 {
				case 1:
					fl.victim, fl.victimFlow = h, flow
				case 2:
					fl.victim, fl.victimFlow = &w.hosts[(int(arg)+1)%len(w.hosts)], flow
				case 3:
					fl.victim, fl.victimFlow = pair(how >> 2)
				}
				if w.ref[k] != nil {
					mustPanic(t, "duplicate Register", func() { h.Register(flow, fl) })
					break
				}
				h.Register(flow, fl)
				w.ref[k] = fl
			case 1:
				w.unregister(h, flow)
			case 2:
				want, _ := w.ref[k].(*fuzzFlow)
				before := 0
				if want != nil {
					before = want.got
				}
				h.Receive(dataPkt(flow, int32(h.ID)))
				if want != nil && want.got != before+1 {
					t.Fatalf("step %d: host %d flow %d: handler saw %d packets, want %d", step, h.ID, flow, want.got, before+1)
				}
			}
			w.check(step)
		}
	})
}
