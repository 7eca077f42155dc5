package transport_test

import (
	"math"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
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

func TestSingleFlowDeliversAllBytes(t *testing.T) {
	net := newStar(2, 0, nil)
	eng := net.Engines[0]
	cfg := transport.DefaultConfig()

	const size = 1_000_000
	var done *transport.Flow
	f := transport.StartFlow(eng, cfg, net.Host(0), net.Host(1), 1, size, 0,
		func(fl *transport.Flow) { done = fl })
	net.Shard.Run()

	if done == nil {
		t.Fatal("flow did not complete")
	}
	if !f.Sender.Finished() {
		t.Error("sender not finished")
	}
	if f.Receiver.RcvNxt() != size {
		t.Errorf("receiver got %d bytes in order, want %d", f.Receiver.RcvNxt(), size)
	}
	if f.FCT <= 0 {
		t.Errorf("FCT = %v", f.FCT)
	}
	// Lower bound: serialization of size bytes at 10 Gbps through two links
	// plus propagation. 1 MB -> >= 800 µs.
	minFCT := sim.Time(float64(size) * 8 / topology.TenGbps * float64(sim.Second))
	if f.FCT < minFCT {
		t.Errorf("FCT %v below serialization bound %v", f.FCT, minFCT)
	}
	// Sanity: an unloaded path should finish within a few times the bound.
	if f.FCT > 3*minFCT {
		t.Errorf("FCT %v way above bound %v on an idle path", f.FCT, minFCT)
	}
	if f.Sender.Stats.Timeouts != 0 {
		t.Errorf("timeouts on an idle path: %d", f.Sender.Stats.Timeouts)
	}
}

func TestTinyFlow(t *testing.T) {
	net := newStar(2, 0, nil)
	eng := net.Engines[0]
	cfg := transport.DefaultConfig()
	var fct sim.Time
	transport.StartFlow(eng, cfg, net.Host(0), net.Host(1), 1, 1, 0,
		func(fl *transport.Flow) { fct = fl.FCT })
	net.Shard.Run()
	if fct <= 0 {
		t.Fatal("1-byte flow did not complete")
	}
}

func TestManyParallelFlowsConserveBytes(t *testing.T) {
	const hosts = 8
	net := newStar(hosts, 300_000, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(65 * 1460)
	})
	eng := net.Engines[0]
	cfg := transport.DefaultConfig()

	type result struct {
		size int64
		fl   *transport.Flow
	}
	var done []result
	id := uint64(1)
	for s := 0; s < hosts-1; s++ {
		size := int64(200_000 + 37_000*s)
		fl := transport.StartFlow(eng, cfg, net.Host(s), net.Host(hosts-1), id, size, 0, nil)
		done = append(done, result{size, fl})
		id++
	}
	net.Shard.Run()

	for i, r := range done {
		if !r.fl.Done {
			t.Fatalf("flow %d incomplete", i)
		}
		if r.fl.Receiver.RcvNxt() != r.size {
			t.Errorf("flow %d: delivered %d, want %d", i, r.fl.Receiver.RcvNxt(), r.size)
		}
	}
}

func TestECNMarkingCutsWindow(t *testing.T) {
	// A tiny marking threshold forces marks quickly.
	net := newStar(3, 0, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(10 * 1500)
	})
	eng := net.Engines[0]
	cfg := transport.DefaultConfig()

	f1 := transport.StartFlow(eng, cfg, net.Host(0), net.Host(2), 1, 3_000_000, 0, nil)
	f2 := transport.StartFlow(eng, cfg, net.Host(1), net.Host(2), 2, 3_000_000, 0, nil)
	net.Shard.Run()

	if f1.Sender.Stats.ECECuts == 0 && f2.Sender.Stats.ECECuts == 0 {
		t.Error("no ECN-driven window cuts despite a tiny marking threshold")
	}
	if f1.Receiver.CEMarksSeen == 0 && f2.Receiver.CEMarksSeen == 0 {
		t.Error("no CE marks observed at receivers")
	}
	// DCTCP α should have moved off its initial value.
	d := f1.Sender.Control().(*transport.DCTCP)
	if d.Alpha == 1 {
		t.Error("DCTCP alpha never updated")
	}
}

func TestLossRecoveryUnderTinyBuffer(t *testing.T) {
	// 8 packets of buffer and no marking: drops are guaranteed with
	// concurrent senders; flows must still complete via retransmission.
	net := newStar(5, 8*1500, nil)
	eng := net.Engines[0]
	cfg := transport.DefaultConfig()

	var flows []*transport.Flow
	for s := 0; s < 4; s++ {
		fl := transport.StartFlow(eng, cfg, net.Host(s), net.Host(4), uint64(s+1),
			500_000, 0, nil)
		flows = append(flows, fl)
	}
	net.Shard.Run()

	drops := net.EgressTo(4).Egress.Drops
	if drops == 0 {
		t.Fatal("expected tail drops with an 8-packet buffer")
	}
	anyRetx := false
	for i, fl := range flows {
		if !fl.Done {
			t.Fatalf("flow %d incomplete after losses", i)
		}
		if fl.Receiver.RcvNxt() != 500_000 {
			t.Errorf("flow %d delivered %d bytes", i, fl.Receiver.RcvNxt())
		}
		if fl.Sender.Stats.Retransmits > 0 {
			anyRetx = true
		}
	}
	if !anyRetx {
		t.Error("drops occurred but no retransmissions recorded")
	}
}

func TestECNTCPHalvesVsDCTCPGentler(t *testing.T) {
	// With the same marking threshold, ECN-TCP (λ=1) should end up with a
	// smaller average window than DCTCP (λ≈0.17) — the reason Equation 1
	// thresholds differ per transport. We proxy via throughput of a fixed
	// transfer under continuous marking.
	run := func(newCC func() transport.ECNControl) sim.Time {
		// Two senders share the bottleneck so a queue actually builds, and
		// a 20 µs propagation delay makes the BDP (~100 KB) much larger
		// than the marking threshold, so halving the window starves the
		// pipe while DCTCP's proportional cut does not.
		net := topology.NewStar(3, topology.Options{
			Link: topology.LinkParams{
				RateBps:     topology.TenGbps,
				PropDelay:   20 * sim.Microsecond,
				BufferBytes: 0,
			},
			NewAQM: func(int) aqm.AQM { return aqm.NewREDInstantBytes(8 * 1460) },
		})
		eng := net.Engines[0]
		cfg := transport.DefaultConfig()
		cfg.NewControl = newCC
		var last sim.Time
		onDone := func(*transport.Flow) { last = eng.Now() }
		transport.StartFlow(eng, cfg, net.Host(0), net.Host(2), 1, 5_000_000, 0, onDone)
		transport.StartFlow(eng, cfg, net.Host(1), net.Host(2), 2, 5_000_000, 0, onDone)
		net.Shard.Run()
		if last == 0 {
			t.Fatal("flows did not finish")
		}
		return last
	}
	dctcp := run(func() transport.ECNControl { return transport.NewDCTCP() })
	ecntcp := run(func() transport.ECNControl { return transport.NewECNTCP() })
	if float64(ecntcp) < float64(dctcp)*1.05 {
		t.Errorf("ECN-TCP FCT %v not clearly worse than DCTCP %v under tight marking",
			ecntcp, dctcp)
	}
}

func TestDelayedAcksStillComplete(t *testing.T) {
	net := newStar(2, 0, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(30 * 1460)
	})
	eng := net.Engines[0]
	cfg := transport.DefaultConfig()
	cfg.DelayedAckCount = 2
	var done bool
	fl := transport.StartFlow(eng, cfg, net.Host(0), net.Host(1), 1, 2_000_000, 0,
		func(*transport.Flow) { done = true })
	net.Shard.Run()
	if !done {
		t.Fatal("flow with delayed ACKs did not complete")
	}
	if fl.Receiver.AcksSent >= fl.Receiver.DataPackets {
		t.Errorf("delayed ACKs not batching: %d acks for %d packets",
			fl.Receiver.AcksSent, fl.Receiver.DataPackets)
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
	done := false
	fl := transport.StartFlow(eng, cfg, net.Host(0), net.Host(1), 1, 3_000_000, 0,
		func(*transport.Flow) { done = true })
	peak := 0
	for eng.Step() {
		if n := eng.Len(); n > peak {
			peak = n
		}
	}
	if !done || fl.Receiver.AcksSent < 2000 {
		t.Fatalf("flow done=%v after %d ACKs; the test needs a few thousand re-arms", done, fl.Receiver.AcksSent)
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
	cfg := transport.DefaultConfig()
	start := 5 * sim.Millisecond
	var completedAt sim.Time
	transport.StartFlow(eng, cfg, net.Host(0), net.Host(1), 1, 10_000, start,
		func(*transport.Flow) { completedAt = eng.Now() })
	net.Shard.Run()
	if completedAt < start {
		t.Errorf("flow completed at %v before its start %v", completedAt, start)
	}
}

func TestDCTCPAlphaConvergesUnderFullMarking(t *testing.T) {
	d := transport.NewDCTCP()
	for i := 0; i < 100; i++ {
		d.OnWindowEnd(1)
	}
	if math.Abs(d.Alpha-1) > 1e-6 {
		t.Errorf("alpha = %v after sustained marking, want 1", d.Alpha)
	}
	for i := 0; i < 400; i++ {
		d.OnWindowEnd(0)
	}
	if d.Alpha > 1e-9 {
		t.Errorf("alpha = %v after no marking, want ≈0", d.Alpha)
	}
	if d.CutFraction() > 0.5 {
		t.Error("cut fraction above 1/2")
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
		func(c *transport.Config) { c.NewControl = nil },
	}
	for i, mutate := range bad {
		c := transport.DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFlowPanicsOnSelfLoop(t *testing.T) {
	net := newStar(2, 0, nil)
	eng := net.Engines[0]
	defer func() {
		if recover() == nil {
			t.Error("self-loop flow did not panic")
		}
	}()
	transport.StartFlow(eng, transport.DefaultConfig(), net.Host(0), net.Host(0), 1, 10, 0, nil)
}

func TestEffectiveLambda(t *testing.T) {
	if l := transport.EffectiveLambda(transport.NewECNTCP()); l != 1 {
		t.Errorf("lambda(ecn-tcp) = %v", l)
	}
	if l := transport.EffectiveLambda(transport.NewDCTCP()); l != 0.17 {
		t.Errorf("lambda(dctcp) = %v", l)
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
	eng := net.Engines[0]
	cfg := transport.DefaultConfig()
	f1 := transport.StartFlow(eng, cfg, net.Host(0), net.Host(2), 1, 4_000_000, 0, nil)
	f2 := transport.StartFlow(eng, cfg, net.Host(1), net.Host(2), 2, 4_000_000, 0, nil)
	net.Shard.Run()
	if !f1.Done || !f2.Done {
		t.Fatal("flows incomplete under ECN♯")
	}
	if sharp == nil {
		t.Fatal("no ECN♯ instance constructed")
	}
	// Two competing 10G flows must overdrive the port; some marking of
	// either kind is required to keep the queue in check.
	_, inst, pst := net.EgressTo(2).Egress.AQM(0).(*aqm.ECNSharp).Core().Counts()
	if inst+pst == 0 {
		t.Error("ECN♯ never marked under 2:1 congestion")
	}
}
