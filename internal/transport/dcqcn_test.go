package transport_test

import (
	"math"
	"math/rand"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
)

func TestDCQCNConfigValidate(t *testing.T) {
	good := transport.DefaultDCQCNConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*transport.DCQCNConfig){
		func(c *transport.DCQCNConfig) { c.LineRateBps = 0 },
		func(c *transport.DCQCNConfig) { c.MinRateBps = c.LineRateBps * 2 },
		func(c *transport.DCQCNConfig) { c.RaiBps = 0 },
		func(c *transport.DCQCNConfig) { c.G = 2 },
		func(c *transport.DCQCNConfig) { c.AlphaTimer = 0 },
		func(c *transport.DCQCNConfig) { c.CNPInterval = 0 },
		func(c *transport.DCQCNConfig) { c.FastRecoverySteps = 0 },
	}
	for i, mutate := range bad {
		c := transport.DefaultDCQCNConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		// A flow's Config checks the rate parameters it carries.
		if err := rateConfig(c).Validate(); err == nil {
			t.Errorf("case %d: transport config with invalid DCQCN accepted", i)
		}
	}
}

// rateConfig is the default transport config made rate-based with dc.
func rateConfig(dc transport.DCQCNConfig) transport.Config {
	cfg := transport.DefaultConfig()
	cfg.DCQCN = &dc
	return cfg
}

func TestDCQCNDeliversAllBytes(t *testing.T) {
	net := topology.NewStar(2, topology.Options{
		Link: topology.LinkParams{RateBps: topology.TenGbps, PropDelay: 2 * sim.Microsecond},
	})
	const size = 2_000_000
	fl := launch(rateConfig(transport.DefaultDCQCNConfig()), net.Host(0), net.Host(1), 1, size, 0)
	net.Shard.Run()
	sender, recv, fct := fl.Senders[0], fl.Receivers[0], fl.FCT[0]
	if !sender.Finished() || recv.RcvNxt() != size {
		t.Fatalf("incomplete: finished=%v rcv=%d", sender.Finished(), recv.RcvNxt())
	}
	// Paced at ~line rate on an idle path: close to serialization time.
	min := sim.Time(float64(size) * 8 / topology.TenGbps * float64(sim.Second))
	if fct < min || fct > 3*min {
		t.Errorf("FCT %v vs serialization bound %v", fct, min)
	}
}

func TestDCQCNCutsOnMarksAndRecovers(t *testing.T) {
	// A tight probabilistic marker keeps CNPs flowing while two flows
	// share the bottleneck.
	net := topology.NewStar(3, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   2 * sim.Microsecond,
			BufferBytes: 600 * 1500,
		},
		NewAQM: func(int) aqm.AQM { return aqm.NewREDInstantBytes(30 * 1500) },
	})
	cfg := rateConfig(transport.DefaultDCQCNConfig())
	table := transport.NewFlowTable(2)
	table.Launch(cfg, net.Host(0), net.Host(2), 1, 8_000_000, 0, false)
	table.Launch(cfg, net.Host(1), net.Host(2), 2, 8_000_000, 0, false)
	net.Shard.Run()
	s1, s2 := table.Senders[0], table.Senders[1]
	if !s1.Finished() || !s2.Finished() {
		t.Fatal("flows incomplete")
	}
	if s1.Stats.ECECuts == 0 && s2.Stats.ECECuts == 0 {
		t.Error("no rate cuts despite marking")
	}
	drops := net.EgressTo(2).Egress.Drops
	if drops > 0 {
		t.Errorf("%d drops; rate control failed to keep the queue bounded", drops)
	}
}

func TestDCQCNRateFloor(t *testing.T) {
	eng := sim.NewEngine()
	host := device.NewHost(eng, 0)
	peer := device.NewHost(eng, 1)
	sink := &ackSink{}
	host.NIC = device.NewPort(eng, newEgress(), 10e9, 0, sink)
	cfg := transport.DefaultDCQCNConfig()
	s := launch(rateConfig(cfg), host, peer, 1, 1_000_000, 0).Senders[0]
	eng.RunUntil(sim.Millisecond)
	// Hammer it with synthetic CNPs spaced past the CNP interval.
	for i := 0; i < 200; i++ {
		eng.RunUntil(eng.Now() + cfg.CNPInterval + sim.Microsecond)
		s.HandlePacket(eng.Now(), &packet.Packet{
			FlowID: 1, Kind: packet.Ack, Seq: 0, ECE: true,
		})
	}
	if s.Rate() < cfg.MinRateBps {
		t.Errorf("rate %v fell below the floor %v", s.Rate(), cfg.MinRateBps)
	}
	if s.Rate() > cfg.MinRateBps*4 {
		t.Errorf("rate %v did not collapse under sustained CNPs", s.Rate())
	}
}

func TestDCQCNLossRecoveryGoBackN(t *testing.T) {
	eng := sim.NewEngine()
	h0 := device.NewHost(eng, 0)
	h1 := device.NewHost(eng, 1)
	tap := device.NewTap(eng, h1)
	tap.Drop = device.DropSeqOnce(50 * 1460)
	h0.NIC = device.NewPort(eng, newEgress(), 10e9, 2*sim.Microsecond, tap)
	h1.NIC = device.NewPort(eng, newEgress(), 10e9, 2*sim.Microsecond, h0)

	const size = 300 * 1460
	fl := launch(rateConfig(transport.DefaultDCQCNConfig()), h0, h1, 1, size, 0)
	eng.Run()
	sender, recv := fl.Senders[0], fl.Receivers[0]
	if !sender.Finished() || recv.RcvNxt() != size {
		t.Fatalf("incomplete after loss: rcv=%d", recv.RcvNxt())
	}
	if sender.Stats.Retransmits == 0 {
		t.Error("no go-back-N after a drop")
	}
}

// TestDCQCNStampsClass: a rate flow's data packets carry its Config.Class,
// which selects the egress queue under DWRR weights, and its sender
// counts the bytes it sends and the ACKs it receives.
func TestDCQCNStampsClass(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	var data, wrong int
	tap.Drop = func(p *packet.Packet) bool {
		if p.Kind == packet.Data {
			data++
			if p.Class != 1 {
				wrong++
			}
		}
		return false
	}
	cfg := rateConfig(transport.DefaultDCQCNConfig())
	cfg.Class = 1
	fl := launch(cfg, h0, h1, 1, 100*1460, 0)
	eng.Run()
	if !fl.Done[0] || data == 0 || wrong != 0 {
		t.Fatalf("done=%v: %d of %d data packets not in class 1", fl.Done[0], wrong, data)
	}
	if st := fl.Senders[0].Stats; st.SentBytes < 100*1460 || st.AcksReceived == 0 {
		t.Errorf("sender counted %d bytes sent and %d ACKs", st.SentBytes, st.AcksReceived)
	}
}

// TestDCQCNBlackholedFlowFails: a rate flow whose every data packet is
// dropped has the same RTO budget as a window flow. After
// MaxConsecTimeouts go-back-N timeouts it fails: Failed is recorded,
// OnFail runs once, a FlowFail event is traced, and its timers stop, long
// before the deadline guard.
func TestDCQCNBlackholedFlowFails(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	tap.Drop = func(p *packet.Packet) bool { return p.Kind == packet.Data }
	rec := trace.NewRingRecorder(64)
	eng.SetTracer(trace.NewFilter(rec, trace.MaskOf(trace.FlowFail), 1))
	cfg := rateConfig(transport.DefaultDCQCNConfig())
	cfg.MaxConsecTimeouts = 3
	table := transport.NewFlowTable(1)
	var failed []int
	table.OnFail = func(i int) { failed = append(failed, i) }
	table.Launch(cfg, h0, h1, 1, 1_000_000, 0, false)

	const guard = 100 * sim.Millisecond
	eng.RunUntil(guard)
	if !table.Failed[0] || table.Done[0] {
		t.Fatalf("after %v: failed=%v done=%v, want the flow failed", guard, table.Failed[0], table.Done[0])
	}
	if len(failed) != 1 || failed[0] != 0 {
		t.Errorf("OnFail fired with %v, want [0]", failed)
	}
	if evs := rec.Events(); len(evs) != 1 || evs[0].FlowID != 1 || evs[0].At >= int64(guard) {
		t.Errorf("traced FlowFail events %+v, want one for flow 1 before %v", evs, guard)
	}
	if n := eng.Len(); n != 0 {
		t.Errorf("%d events still queued after the flow failed, want 0", n)
	}
	if got := table.Senders[0].Stats.Timeouts; got != int64(cfg.MaxConsecTimeouts)+1 {
		t.Errorf("%d timeouts, want %d", got, cfg.MaxConsecTimeouts+1)
	}
}

func TestDCQCNSharesFairly(t *testing.T) {
	// Four DCQCN flows under the probabilistic marking DCQCN expects must
	// converge to roughly equal rates at high utilization — the §3.5
	// pairing the dcqcn experiment studies. (Cut-off marking instead
	// suppresses all senders every interval; see the dcqcn experiment.)
	rng := rand.New(rand.NewSource(5))
	net := topology.NewStar(5, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   2 * sim.Microsecond,
			BufferBytes: 600 * 1500,
		},
		NewAQM: func(int) aqm.AQM {
			return aqm.NewRED(5*1500, 200*1500, 0.25, rng)
		},
	})
	cfg := rateConfig(transport.DefaultDCQCNConfig())
	table := transport.NewFlowTable(4)
	for i := 0; i < 4; i++ {
		table.Launch(cfg, net.Host(i), net.Host(4), uint64(i+1), 1<<40, 0, false)
	}
	recvs := table.Receivers
	// Measure goodput over the second half of the run (converged regime).
	net.Shard.RunUntil(100 * sim.Millisecond)
	base := make([]int64, 4)
	for i, r := range recvs {
		base[i] = r.BytesInOrder
	}
	net.Shard.RunUntil(200 * sim.Millisecond)

	var sum, sumSq float64
	for i, r := range recvs {
		gbps := float64(r.BytesInOrder-base[i]) * 8 / 0.1 / 1e9
		sum += gbps
		sumSq += gbps * gbps
	}
	jain := sum * sum / (4 * sumSq)
	if jain < 0.9 {
		t.Errorf("Jain index %v; DCQCN flows did not converge", jain)
	}
	if math.Abs(sum-10) > 1.6 {
		t.Errorf("aggregate goodput %v Gbps far from the 10G link", sum)
	}
}

// newEgress builds the plain NIC queue used by fixtures here.
func newEgress() *queue.Egress { return queue.NewEgress(1, nil, 0, nil) }
