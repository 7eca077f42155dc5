package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ecnsharp/internal/sim"
)

// testParams mirrors the testbed configuration of §5.2: ins_target 200 µs,
// pst_interval 200 µs, pst_target 85 µs.
func testParams() Params {
	return Params{
		InsTarget:   200 * sim.Microsecond,
		PstTarget:   85 * sim.Microsecond,
		PstInterval: 200 * sim.Microsecond,
	}
}

func TestThresholdEquations(t *testing.T) {
	// Equation 1 at λ=1, C=10G, RTT=200µs: K = 10e9/8 × 200e-6 = 250 KB,
	// the paper's DCTCP-RED-Tail threshold.
	k := ThresholdBytes(LambdaECNTCP, 10e9, 200*sim.Microsecond)
	if k != 250000 {
		t.Errorf("ThresholdBytes = %d, want 250000", k)
	}
	// Equation 2: T = λ·RTT.
	tt := ThresholdTime(LambdaECNTCP, 200*sim.Microsecond)
	if tt != 200*sim.Microsecond {
		t.Errorf("ThresholdTime = %v, want 200µs", tt)
	}
	// DCTCP's λ ≈ 0.17 shrinks both proportionally.
	kd := ThresholdBytes(0.17, 10e9, 200*sim.Microsecond)
	if kd != 42500 {
		t.Errorf("DCTCP ThresholdBytes = %d, want 42500", kd)
	}
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []Params{
		{InsTarget: 0, PstTarget: 1, PstInterval: 1},
		{InsTarget: 10, PstTarget: 0, PstInterval: 1},
		{InsTarget: 10, PstTarget: 1, PstInterval: 0},
		{InsTarget: 10, PstTarget: 20, PstInterval: 1}, // pst_target > ins_target
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestNewECNSharpRejectsInvalid(t *testing.T) {
	if _, err := NewECNSharp(Params{}); err == nil {
		t.Error("NewECNSharp accepted zero params")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewECNSharp did not panic")
		}
	}()
	MustNewECNSharp(Params{})
}

func TestInstantaneousMarking(t *testing.T) {
	e := MustNewECNSharp(testParams())
	// Below ins_target and pst_target: no mark.
	if r := e.ShouldMark(1*sim.Millisecond, 50*sim.Microsecond); r != NotMarked {
		t.Errorf("low sojourn marked: %v", r)
	}
	// Above ins_target: instantaneous mark, immediately (burst tolerance
	// requires no warm-up).
	if r := e.ShouldMark(1*sim.Millisecond+sim.Microsecond, 300*sim.Microsecond); r != MarkInstantaneous {
		t.Errorf("burst not marked instantaneously: %v", r)
	}
}

// feed drives the marker with a constant sojourn at a fixed packet spacing
// and returns the reasons observed.
func feed(e *ECNSharp, start sim.Time, spacing sim.Time, sojourn sim.Time, n int) []Reason {
	out := make([]Reason, n)
	for i := 0; i < n; i++ {
		out[i] = e.ShouldMark(start+sim.Time(i)*spacing, sojourn)
	}
	return out
}

func TestPersistentMarkingRequiresFullInterval(t *testing.T) {
	p := testParams()
	e := MustNewECNSharp(p)
	// Sojourn above pst_target but below ins_target: persistent logic only.
	sojourn := 100 * sim.Microsecond
	start := 1 * sim.Millisecond
	spacing := 10 * sim.Microsecond

	// During the first pst_interval after first_above_time, nothing marks.
	reasons := feed(e, start, spacing, sojourn, 20) // covers 190 µs
	for i, r := range reasons {
		if r != NotMarked {
			t.Fatalf("packet %d at +%v marked (%v) before a full interval elapsed",
				i, sim.Time(i)*spacing, r)
		}
	}
	// The next packet is past first_above_time + pst_interval: detection
	// confirms and conservative marking starts.
	r := e.ShouldMark(start+210*sim.Microsecond, sojourn)
	if r != MarkPersistent {
		t.Fatalf("persistent buildup not marked: %v", r)
	}
	st := e.State()
	if !st.MarkingState || st.MarkingCount != 1 {
		t.Errorf("state after first mark = %+v", st)
	}
	if st.MarkingNext != start+210*sim.Microsecond+p.PstInterval {
		t.Errorf("marking_next = %v, want now+interval", st.MarkingNext)
	}
}

func TestConservativeMarkingOnePerInterval(t *testing.T) {
	p := testParams()
	e := MustNewECNSharp(p)
	sojourn := 100 * sim.Microsecond
	start := 1 * sim.Millisecond

	// Run a long persistent episode with dense packets and count marks.
	spacing := 5 * sim.Microsecond
	duration := 3 * sim.Millisecond
	n := int(duration / spacing)
	marks := 0
	var markTimes []sim.Time
	for i := 0; i < n; i++ {
		now := start + sim.Time(i)*spacing
		if e.ShouldMark(now, sojourn) == MarkPersistent {
			marks++
			markTimes = append(markTimes, now)
		}
	}
	if marks == 0 {
		t.Fatal("no persistent marks in a standing queue")
	}
	// Conservative: with interval/sqrt(count) spacing over 3 ms and a
	// 200 µs base interval, the mark count stays far below the packet
	// count (600) — one per (shrinking) interval.
	if marks > 60 {
		t.Errorf("marks = %d of %d packets; marking is not conservative", marks, n)
	}
	// Spacing between consecutive marks shrinks (monotone marking_next
	// growth by interval/sqrt(count)).
	for i := 2; i < len(markTimes); i++ {
		gapPrev := markTimes[i-1] - markTimes[i-2]
		gap := markTimes[i] - markTimes[i-1]
		// Allow slack of one packet spacing for quantization.
		if gap > gapPrev+spacing {
			t.Errorf("mark gap grew: %v then %v", gapPrev, gap)
		}
	}
}

func TestQueueExpiryResetsEpisode(t *testing.T) {
	p := testParams()
	e := MustNewECNSharp(p)
	sojourn := 100 * sim.Microsecond
	start := 1 * sim.Millisecond

	// Enter a marking episode.
	feed(e, start, 10*sim.Microsecond, sojourn, 25)
	if !e.State().MarkingState {
		t.Fatal("episode did not start")
	}
	// One packet below pst_target expires the queue and exits the episode.
	if r := e.ShouldMark(start+300*sim.Microsecond, 10*sim.Microsecond); r != NotMarked {
		t.Fatalf("below-target packet marked: %v", r)
	}
	st := e.State()
	if st.MarkingState {
		t.Error("marking_state not cleared on queue expiry")
	}
	if st.FirstAboveTime != 0 {
		t.Error("first_above_time not reset on queue expiry")
	}
	// Re-detection requires a fresh full interval.
	r := e.ShouldMark(start+310*sim.Microsecond, sojourn)
	if r != NotMarked {
		t.Errorf("marked immediately after reset: %v", r)
	}
}

func TestInstantaneousDominatesReason(t *testing.T) {
	e := MustNewECNSharp(testParams())
	// Drive into persistent state with a sojourn above both targets.
	sojourn := 300 * sim.Microsecond
	start := 1 * sim.Millisecond
	for i := 0; i < 50; i++ {
		r := e.ShouldMark(start+sim.Time(i)*10*sim.Microsecond, sojourn)
		if r != MarkInstantaneous {
			t.Fatalf("packet %d: reason %v, want instantaneous to dominate", i, r)
		}
	}
}

// TestReset: Init on a marker mid-episode returns it to the initial
// state, so it decides the next packets as a fresh marker does.
func TestReset(t *testing.T) {
	e := MustNewECNSharp(testParams())
	feed(e, 1*sim.Millisecond, 10*sim.Microsecond, 100*sim.Microsecond, 30)
	if !e.State().MarkingState {
		t.Fatal("feed did not enter a persistent episode")
	}
	p := e.Params()
	e.Init(&p)
	if e.State() != (State{}) {
		t.Errorf("state after Init = %+v", e.State())
	}
	fresh := MustNewECNSharp(testParams())
	got := feed(e, 2*sim.Millisecond, 10*sim.Microsecond, 100*sim.Microsecond, 30)
	want := feed(fresh, 2*sim.Millisecond, 10*sim.Microsecond, 100*sim.Microsecond, 30)
	if !slices.Equal(got, want) {
		t.Errorf("re-initialised marker decided %v, a fresh one %v", got, want)
	}
}

func TestReasonString(t *testing.T) {
	if NotMarked.String() != "none" ||
		MarkInstantaneous.String() != "instantaneous" ||
		MarkPersistent.String() != "persistent" {
		t.Error("Reason strings wrong")
	}
	if Reason(99).String() == "" {
		t.Error("unknown reason has empty string")
	}
}

// TestMarkingNextMonotoneProperty: within one episode, marking_next only
// moves forward and marking_count only grows — Algorithm 1 invariants.
func TestMarkingNextMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := MustNewECNSharp(testParams())
		now := 1 * sim.Millisecond
		prev := e.State()
		for i := 0; i < 500; i++ {
			now += sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
			// Mostly above target, occasionally below (queue drains).
			sojourn := 90*sim.Microsecond + sim.Time(rng.Int63n(int64(50*sim.Microsecond)))
			if rng.Intn(20) == 0 {
				sojourn = sim.Time(rng.Int63n(int64(80 * sim.Microsecond)))
			}
			e.ShouldMark(now, sojourn)
			st := e.State()
			if st.MarkingState && prev.MarkingState {
				if st.MarkingNext < prev.MarkingNext {
					return false
				}
				if st.MarkingCount < prev.MarkingCount {
					return false
				}
			}
			prev = st
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMarkRateBoundProperty: over any persistent episode, the number of
// persistent marks in the first k intervals is at most ~k²/4+O(k) given
// the sqrt schedule; we assert the much looser invariant that marks ≤
// packets and that persistent marks never occur while sojourn < target.
func TestMarkRateBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := MustNewECNSharp(testParams())
		now := 1 * sim.Millisecond
		var seen, marks int
		for i := 0; i < 300; i++ {
			now += sim.Time(rng.Int63n(int64(15*sim.Microsecond)) + 1)
			sojourn := sim.Time(rng.Int63n(int64(150 * sim.Microsecond)))
			r := e.ShouldMark(now, sojourn)
			seen++
			if r != NotMarked {
				marks++
			}
			if r == MarkPersistent && sojourn < e.Params().PstTarget {
				return false // below-target packets must never persistent-mark
			}
			if r == MarkInstantaneous && sojourn <= e.Params().InsTarget {
				return false
			}
		}
		return marks <= seen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSqrtSchedule verifies the marking_next increments follow
// pst_interval/sqrt(count) exactly.
func TestSqrtSchedule(t *testing.T) {
	p := testParams()
	e := MustNewECNSharp(p)
	sojourn := 100 * sim.Microsecond
	now := 1 * sim.Millisecond

	// Enter the episode.
	for !e.State().MarkingState {
		now += 10 * sim.Microsecond
		e.ShouldMark(now, sojourn)
	}
	// Walk marks and check each increment.
	for k := 2; k <= 10; k++ {
		st := e.State()
		next := st.MarkingNext
		// Jump just past marking_next to trigger the k-th mark.
		now = next + sim.Microsecond
		r := e.ShouldMark(now, sojourn)
		if r != MarkPersistent {
			t.Fatalf("mark %d not produced: %v", k, r)
		}
		want := next + sim.Time(float64(p.PstInterval)/math.Sqrt(float64(k)))
		got := e.State().MarkingNext
		if got != want {
			t.Fatalf("mark %d: marking_next = %v, want %v", k, got, want)
		}
	}
}

func TestFixedScheduleKeepsConstantInterval(t *testing.T) {
	p := testParams()
	p.Schedule = FixedSchedule
	e := MustNewECNSharp(p)
	sojourn := 100 * sim.Microsecond
	now := 1 * sim.Millisecond
	for !e.State().MarkingState {
		now += 10 * sim.Microsecond
		e.ShouldMark(now, sojourn)
	}
	for k := 2; k <= 6; k++ {
		next := e.State().MarkingNext
		now = next + sim.Microsecond
		if r := e.ShouldMark(now, sojourn); r != MarkPersistent {
			t.Fatalf("mark %d not produced: %v", k, r)
		}
		if got := e.State().MarkingNext; got != next+p.PstInterval {
			t.Fatalf("mark %d: interval not constant: %v -> %v", k, next, got)
		}
	}
	if SqrtSchedule.String() != "sqrt" || FixedSchedule.String() != "fixed" {
		t.Error("Schedule strings")
	}
}

func TestPersistentMarkBypassesInstantaneous(t *testing.T) {
	e := MustNewECNSharp(testParams())
	now := 1 * sim.Millisecond
	// Sojourn far above ins_target, but PersistentMark must not mark until
	// a full interval has elapsed.
	for i := 0; i < 20; i++ {
		now += 10 * sim.Microsecond
		if e.PersistentMark(now, 500*sim.Microsecond) {
			t.Fatalf("persistent mark before one interval (i=%d)", i)
		}
	}
	now += 30 * sim.Microsecond
	if !e.PersistentMark(now, 500*sim.Microsecond) {
		t.Fatal("no persistent mark after a full interval")
	}
}
