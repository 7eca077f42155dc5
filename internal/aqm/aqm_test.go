package aqm

import (
	"math/rand"
	"testing"

	"ecnsharp/internal/core"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

func dataPkt() *packet.Packet {
	return &packet.Packet{Kind: packet.Data, PayloadLen: packet.MSS, ECN: packet.ECT}
}

func TestNop(t *testing.T) {
	var n Nop
	if n.Name() != "nop" {
		t.Error("name")
	}
	if n.OnEnqueue(0, dataPkt(), Backlog{Bytes: 1 << 30}) {
		t.Error("Nop marked at enqueue")
	}
	if n.OnDequeue(0, dataPkt(), sim.Second) {
		t.Error("Nop marked at dequeue")
	}
}

func TestREDInstantQueueBytes(t *testing.T) {
	r := NewREDInstantBytes(100 * 1500)
	p := dataPkt()
	if r.OnEnqueue(0, p, Backlog{Bytes: 50 * 1500}) {
		t.Error("marked below K")
	}
	if !r.OnEnqueue(0, p, Backlog{Bytes: 100 * 1500}) {
		t.Error("not marked above K (backlog+pkt exceeds)")
	}
	// Boundary: backlog + size exactly K does not mark (strictly above).
	if r.OnEnqueue(0, p, Backlog{Bytes: 100*1500 - int64(p.Size())}) {
		t.Error("marked at exactly K")
	}
	if r.OnDequeue(0, p, sim.Second) {
		t.Error("marked at dequeue")
	}
}

// TestREDInstantSojourn checks the sojourn-time form of instantaneous RED
// (K = C·T), which is TCN: it marks only at dequeue, and only strictly above T.
func TestREDInstantSojourn(t *testing.T) {
	r := NewTCN(200 * sim.Microsecond)
	p := dataPkt()
	if r.OnEnqueue(0, p, Backlog{Bytes: 1 << 30}) {
		t.Error("sojourn mode marked at enqueue")
	}
	if r.OnDequeue(0, p, 200*sim.Microsecond) {
		t.Error("marked at exactly T")
	}
	if !r.OnDequeue(0, p, 201*sim.Microsecond) {
		t.Error("not marked above T")
	}
}

func TestTCN(t *testing.T) {
	tc := NewTCN(150 * sim.Microsecond)
	p := dataPkt()
	if tc.OnEnqueue(0, p, Backlog{Bytes: 1 << 30}) {
		t.Error("TCN marked at enqueue")
	}
	if tc.OnDequeue(0, p, 100*sim.Microsecond) {
		t.Error("TCN marked below threshold")
	}
	if !tc.OnDequeue(0, p, 151*sim.Microsecond) {
		t.Error("TCN not marked above threshold")
	}
}

func TestREDProbabilistic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED(10*1500, 100*1500, 0.8, rng)
	p := dataPkt()
	if r.OnEnqueue(0, p, Backlog{Bytes: 0}) {
		t.Error("marked below Kmin")
	}
	if !r.OnEnqueue(0, p, Backlog{Bytes: 200 * 1500}) {
		t.Error("not marked above Kmax")
	}
	// Between Kmin and Kmax the marking rate approximates the linear curve.
	mid := Backlog{Bytes: 55 * 1500} // ≈50% of the range -> p ≈ 0.4
	marked := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.OnEnqueue(0, p, mid) {
			marked++
		}
	}
	frac := float64(marked) / n
	if frac < 0.3 || frac > 0.5 {
		t.Errorf("mid-range mark fraction = %v, want ≈0.4", frac)
	}
}

func TestREDPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, f := range []func(){
		func() { NewRED(100, 50, 0.5, rng) },
		func() { NewRED(10, 100, 1.5, rng) },
		func() { NewRED(10, 100, 0.5, nil) },
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

func TestCoDelNoMarkBelowTarget(t *testing.T) {
	c := NewCoDel(85*sim.Microsecond, 200*sim.Microsecond)
	p := dataPkt()
	now := sim.Millis(1)
	for i := 0; i < 100; i++ {
		if c.OnDequeue(now+sim.Time(i)*10*sim.Microsecond, p, 50*sim.Microsecond) {
			t.Fatal("CoDel marked below target")
		}
	}
}

func TestCoDelMarksAfterInterval(t *testing.T) {
	c := NewCoDel(85*sim.Microsecond, 200*sim.Microsecond)
	p := dataPkt()
	now := sim.Millis(1)
	sojourn := 100 * sim.Microsecond
	marked := -1
	for i := 0; i < 100; i++ {
		at := now + sim.Time(i)*10*sim.Microsecond
		if c.OnDequeue(at, p, sojourn) {
			marked = i
			break
		}
	}
	if marked < 0 {
		t.Fatal("CoDel never marked a standing queue")
	}
	// Must have waited at least a full interval (20 packets at 10 µs).
	if marked < 20 {
		t.Errorf("CoDel marked after only %d packets (%v), before one interval",
			marked, sim.Time(marked)*10*sim.Microsecond)
	}
}

func TestCoDelIsSlowOnBursts(t *testing.T) {
	// The paper's point: a transient burst shorter than the interval is
	// never marked by CoDel (but would be by instantaneous marking).
	c := NewCoDel(85*sim.Microsecond, 200*sim.Microsecond)
	p := dataPkt()
	now := sim.Millis(1)
	// 15 packets with huge sojourn, spanning only 150 µs < interval.
	for i := 0; i < 15; i++ {
		if c.OnDequeue(now+sim.Time(i)*10*sim.Microsecond, p, sim.Millisecond) {
			t.Fatal("CoDel marked inside the first interval — too fast")
		}
	}
	// Queue drains; a later short burst is again unmarked.
	c.OnDequeue(now+sim.Millis(1), p, 10*sim.Microsecond)
	for i := 0; i < 15; i++ {
		if c.OnDequeue(now+sim.Millis(2)+sim.Time(i)*10*sim.Microsecond, p, sim.Millisecond) {
			t.Fatal("CoDel marked a second short burst")
		}
	}
}

func TestCoDelEpisodeEndsOnDrain(t *testing.T) {
	c := NewCoDel(85*sim.Microsecond, 200*sim.Microsecond)
	p := dataPkt()
	now := sim.Millis(1)
	// Build an episode.
	for i := 0; i < 60; i++ {
		c.OnDequeue(now+sim.Time(i)*10*sim.Microsecond, p, 100*sim.Microsecond)
	}
	if !c.marking {
		t.Fatal("no episode established")
	}
	// A below-target packet exits the episode.
	if c.OnDequeue(now+sim.Millis(1), p, 10*sim.Microsecond) {
		t.Error("marked below target")
	}
	if c.marking {
		t.Error("episode not exited on drain")
	}
}

func TestCoDelPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewCoDel(0, 100)
}

func TestECNSharpAQMAdapter(t *testing.T) {
	params := core.Params{
		InsTarget:   200 * sim.Microsecond,
		PstTarget:   85 * sim.Microsecond,
		PstInterval: 200 * sim.Microsecond,
	}
	e := MustNewECNSharp(params)
	p := dataPkt()
	if e.OnEnqueue(0, p, Backlog{Bytes: 1 << 30}) {
		t.Error("ECN♯ marked at enqueue")
	}
	// Instantaneous path.
	if !e.OnDequeue(sim.Millis(1), p, 300*sim.Microsecond) {
		t.Error("ECN♯ missed an instantaneous mark")
	}
	// Persistent path needs the interval; immediately below ins_target no mark.
	if e.OnDequeue(sim.Millis(1)+10*sim.Microsecond, p, 100*sim.Microsecond) {
		t.Error("ECN♯ persistent-marked too early")
	}
	if e.Core() == nil {
		t.Error("Core() nil")
	}
	if _, err := NewECNSharp(core.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestECNSharpVsCoDelBurstResponse(t *testing.T) {
	// Head-to-head on the same trace: a sudden burst with sojourn above
	// ins_target. ECN♯ marks from the first packet; CoDel not at all
	// within the interval.
	params := core.Params{
		InsTarget:   200 * sim.Microsecond,
		PstTarget:   85 * sim.Microsecond,
		PstInterval: 200 * sim.Microsecond,
	}
	sharp := MustNewECNSharp(params)
	codel := NewCoDel(85*sim.Microsecond, 200*sim.Microsecond)
	p := dataPkt()
	now := sim.Millis(1)
	sharpMarks, codelMarks := 0, 0
	for i := 0; i < 10; i++ {
		at := now + sim.Time(i)*10*sim.Microsecond
		if sharp.OnDequeue(at, p, 400*sim.Microsecond) {
			sharpMarks++
		}
		if codel.OnDequeue(at, p, 400*sim.Microsecond) {
			codelMarks++
		}
	}
	if sharpMarks != 10 {
		t.Errorf("ECN♯ marked %d/10 burst packets", sharpMarks)
	}
	if codelMarks != 0 {
		t.Errorf("CoDel marked %d burst packets inside one interval", codelMarks)
	}
}

func TestNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := core.Params{
		InsTarget: 200 * sim.Microsecond, PstTarget: 85 * sim.Microsecond,
		PstInterval: 200 * sim.Microsecond,
	}
	for _, a := range []AQM{
		NewREDInstantBytes(1000),
		NewTCN(sim.Microsecond),
		NewRED(1, 2, 0.5, rng),
		NewCoDel(sim.Microsecond, sim.Millisecond),
		MustNewECNSharp(params),
	} {
		if a.Name() == "" {
			t.Errorf("%T has empty name", a)
		}
	}
}

func TestECNSharpProb(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	params := core.Params{
		InsTarget:   220 * sim.Microsecond,
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}
	e, err := NewECNSharpProb(params, 110*sim.Microsecond, 220*sim.Microsecond, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() == "" {
		t.Error("no name")
	}
	p := dataPkt()
	if e.OnEnqueue(0, p, Backlog{Bytes: 1 << 30}) {
		t.Error("marked at enqueue")
	}
	// Below TMin and below pst_target: never marks.
	for i := 0; i < 50; i++ {
		now := sim.Millis(1) + sim.Time(i)*10*sim.Microsecond
		if e.OnDequeue(now, p, 5*sim.Microsecond) {
			t.Fatal("marked below TMin without persistent congestion")
		}
	}
	// Above TMax: always marks.
	for i := 0; i < 20; i++ {
		now := sim.Millis(2) + sim.Time(i)*10*sim.Microsecond
		if !e.OnDequeue(now, p, 300*sim.Microsecond) {
			t.Fatal("not marked above TMax")
		}
	}
	// Mid-ramp: marks with probability ≈ 0.5×0.8 = 0.4.
	marked, ramp := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		now := sim.Millis(3) + sim.Time(i)*sim.Microsecond
		// Alternate below target to suppress persistent episodes.
		if i%2 == 0 {
			e.OnDequeue(now, p, sim.Microsecond)
			continue
		}
		if e.OnDequeue(now, p, 165*sim.Microsecond) {
			marked++
			if e.LastMarkKind() == trace.MarkProbabilistic {
				ramp++
			}
		}
	}
	frac := float64(marked) / (n / 2)
	if frac < 0.3 || frac > 0.5 {
		t.Errorf("mid-ramp mark fraction %v, want ≈0.4", frac)
	}
	if ramp == 0 {
		t.Error("no mark attributed to the probabilistic ramp")
	}
}

func TestECNSharpProbValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := core.Params{
		InsTarget: 220 * sim.Microsecond, PstTarget: 10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}
	cases := []func() (*ECNSharpProb, error){
		func() (*ECNSharpProb, error) {
			return NewECNSharpProb(good, 200*sim.Microsecond, 100*sim.Microsecond, 0.5, rng)
		},
		func() (*ECNSharpProb, error) {
			return NewECNSharpProb(good, 0, 100*sim.Microsecond, 0.5, rng)
		},
		func() (*ECNSharpProb, error) {
			return NewECNSharpProb(good, 50*sim.Microsecond, 100*sim.Microsecond, 1.5, rng)
		},
		func() (*ECNSharpProb, error) {
			return NewECNSharpProb(good, 50*sim.Microsecond, 100*sim.Microsecond, 0.5, nil)
		},
		func() (*ECNSharpProb, error) {
			return NewECNSharpProb(core.Params{}, 50*sim.Microsecond, 100*sim.Microsecond, 0.5, rng)
		},
	}
	for i, f := range cases {
		if _, err := f(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
