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
		func(c *transport.DCQCNConfig) { c.MinRTO = 0 },
		func(c *transport.DCQCNConfig) { c.FastRecoverySteps = 0 },
		func(c *transport.DCQCNConfig) { c.MSS = 0 },
	}
	for i, mutate := range bad {
		c := transport.DefaultDCQCNConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDCQCNDeliversAllBytes(t *testing.T) {
	net := topology.NewStar(2, topology.Options{
		Link: topology.LinkParams{RateBps: topology.TenGbps, PropDelay: 2 * sim.Microsecond},
	})
	eng := net.Engines[0]
	const size = 2_000_000
	var fct sim.Time
	sender, recv := transport.StartDCQCNFlow(eng, transport.DefaultDCQCNConfig(),
		net.Host(0), net.Host(1), 1, size, 0, func(d sim.Time) { fct = d })
	net.Shard.Run()
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
	eng := net.Engines[0]
	cfg := transport.DefaultDCQCNConfig()
	s1, _ := transport.StartDCQCNFlow(eng, cfg, net.Host(0), net.Host(2), 1, 8_000_000, 0, nil)
	s2, _ := transport.StartDCQCNFlow(eng, cfg, net.Host(1), net.Host(2), 2, 8_000_000, 0, nil)
	net.Shard.Run()
	if !s1.Finished() || !s2.Finished() {
		t.Fatal("flows incomplete")
	}
	if s1.Stats.RateCuts == 0 && s2.Stats.RateCuts == 0 {
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
	_ = peer
	cfg := transport.DefaultDCQCNConfig()
	s := transport.NewDCQCNSender(eng, cfg, host, 1, 1, 1_000_000, nil)
	eng.Schedule(0, s.Start)
	eng.RunUntil(sim.Millisecond)
	// Hammer it with synthetic CNPs spaced past the CNP interval.
	for i := 0; i < 200; i++ {
		eng.RunUntil(eng.Now() + cfg.CNPInterval + sim.Microsecond)
		s.HandlePacket(eng.Now(), &packet.Packet{
			FlowID: 1, Kind: packet.Ack, AckSeq: 0, ECE: true,
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
	sender, recv := transport.StartDCQCNFlow(eng, transport.DefaultDCQCNConfig(),
		h0, h1, 1, size, 0, nil)
	eng.Run()
	if !sender.Finished() || recv.RcvNxt() != size {
		t.Fatalf("incomplete after loss: rcv=%d", recv.RcvNxt())
	}
	if sender.Stats.Retransmits == 0 {
		t.Error("no go-back-N after a drop")
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
	eng := net.Engines[0]
	cfg := transport.DefaultDCQCNConfig()
	var recvs []*transport.Receiver
	for i := 0; i < 4; i++ {
		_, r := transport.StartDCQCNFlow(eng, cfg, net.Host(i), net.Host(4),
			uint64(i+1), 1<<40, 0, nil)
		recvs = append(recvs, r)
	}
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
