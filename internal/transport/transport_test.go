package transport_test

import (
	"math"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/device"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
)

// newStar builds an n-host 10G star with the given switch AQM factory and
// per-port buffer.
func newStar(n int, bufBytes int64, newAQM func(int) aqm.AQM) *topology.Net {
	return topology.NewStar(n, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   2 * sim.Microsecond,
			BufferBytes: bufBytes,
		},
		NewAQM: newAQM,
	})
}

// launch starts one flow through a fresh FlowTable, the one way a run
// starts flows, and returns the table: the flow is its row 0.
func launch(cfg transport.Config, src, dst *device.Host, id uint64, size int64, start sim.Time) *transport.FlowTable {
	table := transport.NewFlowTable(1)
	table.Launch(cfg, src, dst, id, size, start, false)
	return table
}

func TestSingleFlowDeliversAllBytes(t *testing.T) {
	net := newStar(2, 0, nil)
	cfg := transport.DefaultConfig()

	const size = 1_000_000
	f := launch(cfg, net.Host(0), net.Host(1), 1, size, 0)
	net.Shard.Run()

	if !f.Done[0] {
		t.Fatal("flow did not complete")
	}
	if !f.Senders[0].Finished() {
		t.Error("sender not finished")
	}
	if f.Receivers[0].RcvNxt() != size {
		t.Errorf("receiver got %d bytes in order, want %d", f.Receivers[0].RcvNxt(), size)
	}
	fct := f.FCT[0]
	if fct <= 0 {
		t.Errorf("FCT = %v", fct)
	}
	// Lower bound: serialization of size bytes at 10 Gbps through two links
	// plus propagation. 1 MB -> >= 800 µs.
	minFCT := sim.Time(float64(size) * 8 / topology.TenGbps * float64(sim.Second))
	if fct < minFCT {
		t.Errorf("FCT %v below serialization bound %v", fct, minFCT)
	}
	// Sanity: an unloaded path should finish within a few times the bound.
	if fct > 3*minFCT {
		t.Errorf("FCT %v way above bound %v on an idle path", fct, minFCT)
	}
	if f.Senders[0].Stats.Timeouts != 0 {
		t.Errorf("timeouts on an idle path: %d", f.Senders[0].Stats.Timeouts)
	}
}

func TestTinyFlow(t *testing.T) {
	net := newStar(2, 0, nil)
	f := launch(transport.DefaultConfig(), net.Host(0), net.Host(1), 1, 1, 0)
	net.Shard.Run()
	if !f.Done[0] || f.FCT[0] <= 0 {
		t.Fatal("1-byte flow did not complete")
	}
}

func TestManyParallelFlowsConserveBytes(t *testing.T) {
	const hosts = 8
	net := newStar(hosts, 300_000, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(65 * 1460)
	})
	cfg := transport.DefaultConfig()

	table := transport.NewFlowTable(hosts - 1)
	for s := 0; s < hosts-1; s++ {
		size := int64(200_000 + 37_000*s)
		table.Launch(cfg, net.Host(s), net.Host(hosts-1), uint64(s+1), size, 0, false)
	}
	net.Shard.Run()

	for i, size := range table.Size {
		if !table.Done[i] {
			t.Fatalf("flow %d incomplete", i)
		}
		if got := table.Receivers[i].RcvNxt(); got != size {
			t.Errorf("flow %d: delivered %d, want %d", i, got, size)
		}
	}
}

func TestECNMarkingCutsWindow(t *testing.T) {
	// A tiny marking threshold forces marks quickly.
	net := newStar(3, 0, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(10 * 1500)
	})
	cfg := transport.DefaultConfig()

	table := transport.NewFlowTable(2)
	table.Launch(cfg, net.Host(0), net.Host(2), 1, 3_000_000, 0, false)
	table.Launch(cfg, net.Host(1), net.Host(2), 2, 3_000_000, 0, false)
	net.Shard.Run()

	s, r := table.Senders, table.Receivers
	if s[0].Stats.ECECuts == 0 && s[1].Stats.ECECuts == 0 {
		t.Error("no ECN-driven window cuts despite a tiny marking threshold")
	}
	if r[0].CEMarksSeen == 0 && r[1].CEMarksSeen == 0 {
		t.Error("no CE marks observed at receivers")
	}
	// DCTCP α should have moved off its initial value.
	if s[0].Alpha() == 1 {
		t.Error("DCTCP alpha never updated")
	}
}

func TestLossRecoveryUnderTinyBuffer(t *testing.T) {
	// 8 packets of buffer and no marking: drops are guaranteed with
	// concurrent senders; flows must still complete via retransmission.
	net := newStar(5, 8*1500, nil)
	cfg := transport.DefaultConfig()

	table := transport.NewFlowTable(4)
	for s := 0; s < 4; s++ {
		table.Launch(cfg, net.Host(s), net.Host(4), uint64(s+1), 500_000, 0, false)
	}
	net.Shard.Run()

	drops := net.EgressTo(4).Egress.Drops
	if drops == 0 {
		t.Fatal("expected tail drops with an 8-packet buffer")
	}
	anyRetx := false
	for i, done := range table.Done {
		if !done {
			t.Fatalf("flow %d incomplete after losses", i)
		}
		if got := table.Receivers[i].RcvNxt(); got != 500_000 {
			t.Errorf("flow %d delivered %d bytes", i, got)
		}
		if table.Senders[i].Stats.Retransmits > 0 {
			anyRetx = true
		}
	}
	if !anyRetx {
		t.Error("drops occurred but no retransmissions recorded")
	}
}

func TestDelayedAcksStillComplete(t *testing.T) {
	net := newStar(2, 0, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(30 * 1460)
	})
	cfg := transport.DefaultConfig()
	cfg.DelayedAckCount = 2
	fl := launch(cfg, net.Host(0), net.Host(1), 1, 2_000_000, 0)
	net.Shard.Run()
	if !fl.Done[0] {
		t.Fatal("flow with delayed ACKs did not complete")
	}
	if r := fl.Receivers[0]; r.AcksSent >= r.DataPackets {
		t.Errorf("delayed ACKs not batching: %d acks for %d packets", r.AcksSent, r.DataPackets)
	}
}

// TestRTORearmKeepsEventQueueSmall: the sender re-arms its retransmission
// timer on every ACK (Cancel + After >= 2 ms). A canceled timer has to leave
// the engine's queue at once; if it lingered until its timestamp, the queue
// would hold one dead entry per ACK of the last 2 ms (1,673 at the time of
// writing) instead of the handful of events one flow keeps in flight.
func TestRTORearmKeepsEventQueueSmall(t *testing.T) {
	net := newStar(2, 0, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(30 * 1460)
	})
	eng := net.Engines[0]
	cfg := transport.DefaultConfig() // DCTCP, one ACK per data packet
	fl := launch(cfg, net.Host(0), net.Host(1), 1, 3_000_000, 0)
	peak := 0
	for eng.Step() {
		if n := eng.Len(); n > peak {
			peak = n
		}
	}
	if !fl.Done[0] || fl.Receivers[0].AcksSent < 2000 {
		t.Fatalf("flow done=%v after %d ACKs; the test needs a few thousand re-arms", fl.Done[0], fl.Receivers[0].AcksSent)
	}
	if peak > 64 {
		t.Errorf("event queue peaked at %d entries for one flow, want <= 64", peak)
	}
	if eng.Len() != 0 {
		t.Errorf("event queue holds %d entries after the run, want 0", eng.Len())
	}
}

func TestFlowStartsAtScheduledTime(t *testing.T) {
	net := newStar(2, 0, nil)
	eng := net.Engines[0]
	start := 5 * sim.Millisecond
	var completedAt sim.Time
	table := transport.NewFlowTable(1)
	table.OnDone = func(int) { completedAt = eng.Now() }
	table.Launch(transport.DefaultConfig(), net.Host(0), net.Host(1), 1, 10_000, start, false)
	net.Shard.Run()
	if !table.Done[0] || completedAt < start {
		t.Errorf("flow done=%v at %v, want done after its start %v", table.Done[0], completedAt, start)
	}
}

func TestDCTCPAlphaConvergesUnderFullMarking(t *testing.T) {
	net := newStar(2, 0, nil)
	s := launch(transport.DefaultConfig(), net.Host(0), net.Host(1), 1, 10_000, 0).Senders[0]
	for i := 0; i < 100; i++ {
		s.EndWindow(1)
	}
	if math.Abs(s.Alpha()-1) > 1e-6 {
		t.Errorf("alpha = %v after sustained marking, want 1", s.Alpha())
	}
	for i := 0; i < 400; i++ {
		s.EndWindow(0)
	}
	if s.Alpha() > 1e-9 {
		t.Errorf("alpha = %v after no marking, want ≈0", s.Alpha())
	}
	if s.Alpha()/2 > 0.5 {
		t.Error("cut fraction α/2 above 1/2")
	}
}

func TestConfigValidate(t *testing.T) {
	good := transport.DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*transport.Config){
		func(c *transport.Config) { c.MSS = 0 },
		func(c *transport.Config) { c.InitCwndSegments = 0 },
		func(c *transport.Config) { c.MinRTO = 0 },
		func(c *transport.Config) { c.MaxRTO = c.MinRTO - 1 },
		func(c *transport.Config) { c.InitialRTO = 0 },
		func(c *transport.Config) { c.DelayedAckCount = 0 },
	}
	for i, mutate := range bad {
		c := transport.DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestECNSharpEndToEnd drives a full simulation with the paper's AQM and
// checks ECN♯ actually marks and the flow completes.
func TestECNSharpEndToEnd(t *testing.T) {
	params := core.Params{
		InsTarget:   200 * sim.Microsecond,
		PstTarget:   20 * sim.Microsecond,
		PstInterval: 100 * sim.Microsecond,
	}
	var sharp *aqm.ECNSharp
	net := newStar(3, 0, func(int) aqm.AQM {
		a := aqm.MustNewECNSharp(params)
		sharp = a // last one constructed; receiver port is built last
		return a
	})
	cfg := transport.DefaultConfig()
	table := transport.NewFlowTable(2)
	table.Launch(cfg, net.Host(0), net.Host(2), 1, 4_000_000, 0, false)
	table.Launch(cfg, net.Host(1), net.Host(2), 2, 4_000_000, 0, false)
	net.Shard.Run()
	if !table.Done[0] || !table.Done[1] {
		t.Fatal("flows incomplete under ECN♯")
	}
	if sharp == nil {
		t.Fatal("no ECN♯ instance constructed")
	}
	// Two competing 10G flows must overdrive the port; some marking of
	// either kind is required to keep the queue in check.
	kinds := net.EgressTo(2).Egress.MarkKinds
	if kinds[trace.MarkInstantaneous]+kinds[trace.MarkPersistent] == 0 {
		t.Error("ECN♯ never marked under 2:1 congestion")
	}
}
