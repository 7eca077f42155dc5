package topology_test

import (
	"fmt"
	"strings"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
)

// streamTracer renders every event it sees, in order, into one string.
// Any divergence between two runs — one extra mark, one reordered
// enqueue, one stale field on a recycled packet — becomes a byte diff.
type streamTracer struct{ b strings.Builder }

func (s *streamTracer) Trace(e trace.Event) {
	fmt.Fprintf(&s.b, "%d %d %d %d %d %d %d %d %d %d %d %d %v\n",
		e.Type, e.Mark, e.At, e.Port, e.Queue, e.FlowID, e.Src, e.Dst,
		e.Seq, e.Size, e.Dur, e.QueuePackets, e.Value)
}

// runTracedIncast drives a 16-to-1 incast with tail drops, per-flow extra
// delays and delayed ACKs — every packet path that touches the pool
// (alloc, forward, drop-release, terminal-release, delayed send) — and
// returns the full rendered event stream plus completion times.
func runTracedIncast(t *testing.T, noPool bool) (string, *topology.Net) {
	t.Helper()
	net := topology.NewStar(17, topology.NoPacketPool(topology.Options{
		Link: topology.LinkParams{
			RateBps:   topology.TenGbps,
			PropDelay: sim.Microsecond,
			// Small enough that the synchronized burst tail-drops.
			BufferBytes: 64 * 1500,
		},
		NewAQM: func(int) aqm.AQM {
			return aqm.MustNewECNSharp(testParams())
		},
	}, noPool))
	tr := &streamTracer{}
	net.AttachTracer(tr)

	cfg := transport.DefaultConfig()
	cfg.InitCwndSegments = 8
	cfg.DelayedAckCount = 2
	var fcts []sim.Time
	table := transport.NewFlowTable(32)
	table.OnDone = func(i int) { fcts = append(fcts, table.FCT[i]) }
	for f := 0; f < 32; f++ {
		src := net.Host(f % 16)
		src.SetFlowDelay(uint32(f+1), sim.Time(f%5)*sim.Microsecond)
		table.Launch(cfg, src, net.Host(16), uint64(f+1), 50_000, 0, false)
	}
	net.Shard.Run()
	if len(fcts) != 32 {
		t.Fatalf("incast incomplete: %d/32 flows finished", len(fcts))
	}
	for _, fct := range fcts {
		fmt.Fprintf(&tr.b, "fct %d\n", fct)
	}
	return tr.b.String(), net
}

// TestPacketPoolHygieneByteIdentical: a traced incast with packet
// recycling enabled renders byte-identically to the same incast with the
// pool disabled. This is the pool's correctness contract: recycled
// packets must be indistinguishable from freshly allocated ones, so
// pooling can never change simulation results.
func TestPacketPoolHygieneByteIdentical(t *testing.T) {
	pooled, net := runTracedIncast(t, false)
	plain, plainNet := runTracedIncast(t, true)

	if pooled != plain {
		d := firstDiffLine(pooled, plain)
		t.Fatalf("pooling changed the simulation; first divergence:\n pooled: %s\n  plain: %s", d[0], d[1])
	}
	if net.PacketPools[0] == nil {
		t.Fatal("default options did not build a packet pool")
	}
	if plainNet.PacketPools[0] != nil {
		t.Fatal("an unpooled run still built a pool")
	}
	// The pool must actually have recycled packets, or the test proves
	// nothing: with tail drops and 32 flows the free list turns over many
	// times, so fresh allocations must be a small fraction of handouts.
	pl := net.PacketPools[0]
	if pl.Puts == 0 || pl.Gets == 0 {
		t.Fatalf("pool unused: gets=%d puts=%d", pl.Gets, pl.Puts)
	}
	// (fresh allocations track the peak in-flight population, roughly an
	// eighth of total handouts in this scenario).
	if pl.News*4 > pl.Gets {
		t.Errorf("pool barely recycling: %d fresh allocations out of %d handouts", pl.News, pl.Gets)
	}
}

// runTerminalPaths drives raw packets, each of which it keeps a pointer to,
// into every place a journey can end on a 3-host star with 4-packet
// buffers: hosts 0 and 1 burst at host 2, so its access port tail-drops
// and host 2 receives (and, knowing no such flow, releases) the rest; the
// port goes down mid-burst, losing the packet on its transmitter, its
// queue (DropAll) and what still arrives; the switch then fails and
// blackholes three more; finally everything recovers and two packets get
// through. It returns the rendered trace and the packets.
func runTerminalPaths(t *testing.T, noPool bool) (string, []*packet.Packet, *topology.Net) {
	t.Helper()
	net := topology.NewStar(3, topology.NoPacketPool(topology.Options{
		Link:   topology.LinkParams{RateBps: topology.TenGbps, PropDelay: sim.Microsecond, BufferBytes: 4 * 1500},
		NewAQM: func(int) aqm.AQM { return aqm.MustNewECNSharp(testParams()) },
	}, noPool))
	net.EnableFaults()
	tr := &streamTracer{}
	net.AttachTracer(tr)
	eng, port, sw := net.Engines[0], net.EgressTo(2), net.Switches[0]
	// The star is one domain, whose tallies its ports and hosts share: the
	// switch-port tally counts only port's drops here, and of the hosts'
	// only host 2 receives.
	drops, rx := port.Egress.Settings().Tally, net.Host(2).Tally

	var sent []*packet.Packet
	send := func(src, n int) {
		for i := 0; i < n; i++ {
			p := net.Host(src).AllocPacket()
			p.FlowID, p.Src, p.Dst = 99, int32(src), 2
			p.Kind, p.PayloadLen, p.ECN = packet.Data, packet.MSS, packet.ECT
			sent = append(sent, p)
			net.Host(src).Send(p)
		}
	}
	var tailDrops, queueDrops int64
	eng.Schedule(0, func() { send(0, 12); send(1, 12) })
	eng.Schedule(8*sim.Microsecond, func() {
		tailDrops = drops.Drops
		port.SetDown(true)
		queueDrops = drops.Drops - tailDrops
		if drops.FaultDrops != 1 {
			t.Errorf("link-down lost %d packets on the transmitter, want 1", drops.FaultDrops)
		}
	})
	eng.Schedule(30*sim.Microsecond, func() { port.SetDown(false) })
	eng.Schedule(40*sim.Microsecond, func() { sw.SetFailed(true); send(0, 3) })
	eng.Schedule(60*sim.Microsecond, func() { sw.SetFailed(false); send(0, 2) })
	net.Shard.Run()

	if tailDrops == 0 || queueDrops == 0 || drops.FaultDrops < 2 || sw.Blackholed != 3 || rx.RxPackets < 3 {
		t.Fatalf("a terminal path went unexercised: %d tail drops, %d drained at link-down, %d fault drops, %d blackholed, %d received",
			tailDrops, queueDrops, drops.FaultDrops, sw.Blackholed, rx.RxPackets)
	}
	if ended := drops.Drops + drops.FaultDrops + sw.Blackholed + rx.RxPackets; ended != int64(len(sent)) {
		t.Fatalf("%d of %d packets accounted for", ended, len(sent))
	}
	fmt.Fprintf(&tr.b, "ends %d %d %d %d %d\n", tailDrops, queueDrops, drops.FaultDrops, sw.Blackholed, rx.RxPackets)
	return tr.b.String(), sent, net
}

// TestPacketReleasedOffTheLink: whoever ends a packet's journey — a
// receiving host, a tail drop, a link-down (transmitter, queue, late
// arrivals), a blackholing switch — hands it back with Next cleared: a
// packet is only ever released by its owner, never while a delivery event
// still holds it. With a pool, Put would have panicked otherwise; without
// one nothing zeroes the packets, so their state as handed back is still
// there to inspect. Either way the trace is the same bytes.
func TestPacketReleasedOffTheLink(t *testing.T) {
	pooled, recycled, net := runTerminalPaths(t, false)
	plain, kept, _ := runTerminalPaths(t, true)
	if pooled != plain {
		d := firstDiffLine(pooled, plain)
		t.Fatalf("pooling changed the simulation; first divergence:\n pooled: %s\n  plain: %s", d[0], d[1])
	}
	for i, p := range kept {
		if p.Next != nil {
			t.Errorf("unpooled packet %d (src %d) was handed back with Next = %v", i, p.Src, p.Next)
		}
	}
	if pl := net.PacketPools[0]; pl.Gets != int64(len(recycled)) || pl.Puts != pl.Gets {
		t.Errorf("pool: %d gets, %d puts for %d packets sent", pl.Gets, pl.Puts, len(recycled))
	}
}

func firstDiffLine(a, b string) [2]string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return [2]string{la[i], lb[i]}
		}
	}
	return [2]string{fmt.Sprintf("<%d lines>", len(la)), fmt.Sprintf("<%d lines>", len(lb))}
}

func testParams() core.Params {
	return core.Params{
		InsTarget:   200 * sim.Microsecond,
		PstTarget:   50 * sim.Microsecond,
		PstInterval: 150 * sim.Microsecond,
	}
}
