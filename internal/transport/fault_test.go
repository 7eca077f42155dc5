package transport_test

import (
	"math/rand"
	"testing"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/transport"
)

// faultPath builds two hosts connected directly with a Tap on the data
// direction (host0 -> host1); ACKs flow back untouched.
func faultPath(eng *sim.Engine) (h0, h1 *device.Host, tap *device.Tap) {
	h0 = device.NewHost(eng, 0)
	h1 = device.NewHost(eng, 1)
	tap = device.NewTap(eng, h1)
	h0.NIC = device.NewPort(eng, queue.NewEgress(1, nil, 0, nil), 10e9, 2*sim.Microsecond, tap)
	h1.NIC = device.NewPort(eng, queue.NewEgress(1, nil, 0, nil), 10e9, 2*sim.Microsecond, h0)
	return h0, h1, tap
}

func TestSingleLossRecoversByFastRetransmit(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	tap.Drop = device.DropSeqOnce(20 * 1460) // one segment mid-flow

	const size = 100 * 1460
	fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
	eng.Run()

	if !fl.Done[0] || fl.Receivers[0].RcvNxt() != size {
		t.Fatalf("flow incomplete: done=%v rcv=%d", fl.Done[0], fl.Receivers[0].RcvNxt())
	}
	if tap.Dropped != 1 {
		t.Fatalf("tap dropped %d packets", tap.Dropped)
	}
	if fl.Senders[0].Stats.FastRecoveries != 1 {
		t.Errorf("fast recoveries = %d, want 1", fl.Senders[0].Stats.FastRecoveries)
	}
	if fl.Senders[0].Stats.Timeouts != 0 {
		t.Errorf("timeouts = %d; single loss should not need an RTO", fl.Senders[0].Stats.Timeouts)
	}
	if fl.Senders[0].Stats.Retransmits == 0 {
		t.Error("no retransmissions recorded")
	}
}

func TestBurstLossRecoversViaPartialAcks(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	// Three consecutive segments lost: NewReno recovers one hole per
	// partial ACK without waiting for timeouts.
	drops := map[int64]bool{20 * 1460: true, 21 * 1460: true, 22 * 1460: true}
	tap.Drop = func(p *packet.Packet) bool {
		if p.Kind == packet.Data && drops[p.Seq] {
			delete(drops, p.Seq)
			return true
		}
		return false
	}

	const size = 200 * 1460
	fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
	eng.Run()

	if !fl.Done[0] || fl.Receivers[0].RcvNxt() != size {
		t.Fatalf("flow incomplete after burst loss")
	}
	if fl.Senders[0].Stats.Timeouts != 0 {
		t.Errorf("timeouts = %d; partial-ACK recovery should avoid RTOs",
			fl.Senders[0].Stats.Timeouts)
	}
	if fl.Senders[0].Stats.Retransmits < 3 {
		t.Errorf("retransmits = %d, want >= 3", fl.Senders[0].Stats.Retransmits)
	}
}

func TestLostRetransmissionNeedsRTO(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	// Drop the same segment twice: original and its fast retransmission.
	remaining := 2
	tap.Drop = func(p *packet.Packet) bool {
		if remaining > 0 && p.Kind == packet.Data && p.Seq == 30*1460 {
			remaining--
			return true
		}
		return false
	}

	const size = 120 * 1460
	fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
	eng.Run()

	if !fl.Done[0] || fl.Receivers[0].RcvNxt() != size {
		t.Fatal("flow incomplete after double loss")
	}
	if fl.Senders[0].Stats.Timeouts == 0 {
		t.Error("no RTO despite a lost retransmission")
	}
}

func TestAckLossIsAbsorbedByCumulativeAcks(t *testing.T) {
	eng := sim.NewEngine()
	h0 := device.NewHost(eng, 0)
	h1 := device.NewHost(eng, 1)
	// Tap on the ACK direction this time.
	ackTap := device.NewTap(eng, h0)
	n := int64(0)
	ackTap.Drop = func(p *packet.Packet) bool {
		if p.Kind != packet.Ack {
			return false
		}
		n++
		return n%5 == 0
	}
	h0.NIC = device.NewPort(eng, queue.NewEgress(1, nil, 0, nil), 10e9, 2*sim.Microsecond, h1)
	h1.NIC = device.NewPort(eng, queue.NewEgress(1, nil, 0, nil), 10e9, 2*sim.Microsecond, ackTap)

	const size = 150 * 1460
	fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
	eng.Run()

	if !fl.Done[0] || fl.Receivers[0].RcvNxt() != size {
		t.Fatal("flow incomplete under ACK loss")
	}
	if ackTap.Dropped == 0 {
		t.Fatal("test broken: no ACKs dropped")
	}
	if fl.Senders[0].Stats.Retransmits > 2 {
		t.Errorf("retransmits = %d; cumulative ACKs should absorb ACK loss",
			fl.Senders[0].Stats.Retransmits)
	}
}

func TestDuplicatedPacketsAreHarmless(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	k := int64(0)
	tap.Duplicate = func(p *packet.Packet) bool {
		if p.Kind != packet.Data {
			return false
		}
		k++
		return k%7 == 0
	}

	const size = 100 * 1460
	fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
	eng.Run()

	if !fl.Done[0] || fl.Receivers[0].RcvNxt() != size {
		t.Fatal("flow incomplete under duplication")
	}
	if tap.Duplicated == 0 {
		t.Fatal("test broken: nothing duplicated")
	}
	if fl.Receivers[0].DupPackets == 0 {
		t.Error("receiver did not classify duplicates")
	}
}

func TestSteadyLossRateStillCompletes(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	tap.Drop = device.DropNth(50) // 2% loss

	const size = 400 * 1460
	fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
	eng.Run()

	if !fl.Done[0] || fl.Receivers[0].RcvNxt() != size {
		t.Fatal("flow incomplete under steady loss")
	}
	if fl.Senders[0].Stats.Retransmits == 0 {
		t.Error("no retransmissions under 2% loss")
	}
}

func TestReorderingDeliversExactByteStream(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, tap := faultPath(eng)
	rng := rand.New(rand.NewSource(9))
	tap.Delay = func(p *packet.Packet) sim.Time {
		return sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
	}

	const size = 300 * 1460
	fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
	eng.Run()

	if !fl.Done[0] {
		t.Fatal("flow incomplete under reordering")
	}
	if fl.Receivers[0].RcvNxt() != size {
		t.Fatalf("delivered %d bytes, want %d", fl.Receivers[0].RcvNxt(), size)
	}
	if fl.Receivers[0].OutOfOrder == 0 {
		t.Error("test broken: nothing arrived out of order")
	}
}

func TestCwndNeverExceedsCap(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1, _ := faultPath(eng)
	cfg := transport.DefaultConfig()
	cfg.MaxCwndSegments = 64

	fl := launch(cfg, h0, h1, 1, 20_000_000, 0)
	max := 0.0
	var probe func()
	probe = func() {
		if c := fl.Senders[0].Cwnd(); c > max {
			max = c
		}
		if !fl.Done[0] {
			eng.After(100*sim.Microsecond, probe)
		}
	}
	eng.Schedule(0, probe)
	eng.Run()

	cap := float64(64 * cfg.MSS)
	if max > cap {
		t.Errorf("cwnd reached %.0f, cap %.0f", max, cap)
	}
	if !fl.Done[0] {
		t.Fatal("flow incomplete")
	}
}

func TestDropTapPanicsAndHelpers(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("NewTap(nil) did not panic")
		}
	}()
	device.NewTap(eng, nil)
}

func TestDropNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	device.DropNth(0)
}

// TestRandomFaultsProperty: under random drops, duplicates and jitter the
// transport must still deliver the exact byte stream for every flow — the
// repository's end-to-end integrity invariant.
func TestRandomFaultsProperty(t *testing.T) {
	run := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		h0, h1, tap := faultPath(eng)
		dropP := rng.Float64() * 0.03
		dupP := rng.Float64() * 0.02
		tap.Drop = func(p *packet.Packet) bool {
			return p.Kind == packet.Data && rng.Float64() < dropP
		}
		tap.Duplicate = func(p *packet.Packet) bool {
			return p.Kind == packet.Data && rng.Float64() < dupP
		}
		tap.Delay = func(*packet.Packet) sim.Time {
			return sim.Time(rng.Int63n(int64(10 * sim.Microsecond)))
		}
		size := int64(rng.Intn(400)+1) * 1460
		if rng.Intn(3) == 0 {
			size += int64(rng.Intn(1459)) + 1 // non-MSS-aligned tail
		}
		fl := launch(transport.DefaultConfig(), h0, h1, 1, size, 0)
		eng.Run()
		if !fl.Done[0] {
			t.Fatalf("seed %d: flow incomplete (size %d, drop %.3f)", seed, size, dropP)
		}
		if fl.Receivers[0].RcvNxt() != size {
			t.Fatalf("seed %d: delivered %d of %d bytes", seed, fl.Receivers[0].RcvNxt(), size)
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		run(seed)
	}
}

// TestRTOBackoffBoundedProperty: under a randomized total-blackhole
// window — every data packet dropped for a random interval, the severest
// fault a link-down injects — the sender's RTO estimate stays inside
// [MinRTO, MaxRTO] at every observation point, the backoff exponent never
// exceeds its cap, and two identical senders ("twins", separate engines,
// same window) recover with byte-identical retransmission and timeout
// counts. This is the transport-layer contract the fault-injection
// experiments lean on: recovery is deterministic and the timer can
// neither collapse below the floor nor run away past the ceiling.
func TestRTOBackoffBoundedProperty(t *testing.T) {
	cfg := transport.DefaultConfig()
	type outcome struct {
		retransmits, timeouts int64
		done                  bool
	}
	run := func(start, dur sim.Time, size int64) outcome {
		eng := sim.NewEngine()
		h0, h1, tap := faultPath(eng)
		tap.Drop = func(p *packet.Packet) bool {
			now := eng.Now()
			return p.Kind == packet.Data && now >= start && now < start+dur
		}
		fl := launch(cfg, h0, h1, 1, size, 0)
		var probe func()
		probe = func() {
			if rto := fl.Senders[0].RTO(); rto < cfg.MinRTO || rto > cfg.MaxRTO {
				t.Fatalf("RTO %v outside [%v, %v]", rto, cfg.MinRTO, cfg.MaxRTO)
			}
			if b := fl.Senders[0].Backoff(); b > 10 {
				t.Fatalf("backoff exponent %d above cap", b)
			}
			if !fl.Done[0] {
				eng.After(50*sim.Microsecond, probe)
			}
		}
		eng.Schedule(0, probe)
		eng.Run()
		return outcome{fl.Senders[0].Stats.Retransmits, fl.Senders[0].Stats.Timeouts, fl.Done[0]}
	}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Window opens inside the first 30 us; the smallest flow (50 MSS)
		// needs ~60 us of wire time, so the blackhole always catches the
		// flow mid-transfer.
		start := sim.Time(rng.Int63n(int64(30 * sim.Microsecond)))
		dur := sim.Time(rng.Int63n(int64(15*sim.Millisecond))) + sim.Microsecond
		size := int64(rng.Intn(300)+50) * 1460
		a := run(start, dur, size)
		b := run(start, dur, size)
		if !a.done {
			t.Fatalf("seed %d: flow never completed after a %v blackhole", seed, dur)
		}
		if a != b {
			t.Fatalf("seed %d: twin senders diverged: %+v vs %+v", seed, a, b)
		}
		if dur > 2*cfg.MinRTO && a.timeouts == 0 {
			t.Fatalf("seed %d: %v blackhole caused no RTO", seed, dur)
		}
	}
}
