package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ecnsharp/internal/trace"
)

func TestTimeConversions(t *testing.T) {
	if Micros(1) != Microsecond {
		t.Errorf("Micros(1) = %v, want %v", Micros(1), Microsecond)
	}
	if Seconds(1) != Second {
		t.Errorf("Seconds(1) = %v, want %v", Seconds(1), Second)
	}
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Errorf("Seconds() = %v, want 0.002", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros() = %v, want 3", got)
	}
	if got := FromDuration(5 * time.Microsecond); got != 5*Microsecond {
		t.Errorf("FromDuration = %v, want %v", got, 5*Microsecond)
	}
	if (1500 * Microsecond).String() != "1.5ms" {
		t.Errorf("String() = %q", (1500 * Microsecond).String())
	}
}

func TestEngineExecutesInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed)
	}
}

func TestEngineStableOrderAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time fired out of scheduling order: order[%d] = %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !ev.Valid() || !e.Pending(ev) {
		t.Fatal("fresh handle not valid/pending")
	}
	e.Cancel(ev)
	e.Cancel(ev)      // double cancel is a no-op
	e.Cancel(Event{}) // zero handle is a no-op
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if e.Pending(ev) {
		t.Error("Pending() = true after Cancel")
	}
}

func TestEngineCancelRecycledHandleIsNoop(t *testing.T) {
	e := NewEngine()
	firstFired, secondFired := false, false
	first := e.Schedule(10, func() { firstFired = true })
	e.Run()
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// The second event recycles the first's arena slot; the stale handle
	// must not be able to cancel the new tenant.
	second := e.Schedule(20, func() { secondFired = true })
	e.Cancel(first)
	if !e.Pending(second) {
		t.Fatal("stale handle canceled a recycled event")
	}
	e.Run()
	if !secondFired {
		t.Error("recycled event did not fire after stale Cancel")
	}
	if e.Pending(first) || e.Pending(second) {
		t.Error("fired events still pending")
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	ev1 := e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Schedule(30, func() { got = append(got, 3) })
	e.Cancel(ev1)
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("got = %v, want [2 3]", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.RunUntil(20)
	if len(got) != 2 {
		t.Fatalf("got %v events, want 2", got)
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v, want 20 (clock advances to deadline)", e.Now())
	}
	e.Run()
	if len(got) != 3 {
		t.Fatalf("remaining event not executed: %v", got)
	}
}

func TestEngineRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop halts the run)", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step() = true on empty queue")
	}
}

// TestEngineMonotonicClockProperty schedules random events and verifies
// the clock never goes backwards and everything fires exactly once.
func TestEngineMonotonicClockProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n)%64 + 1
		fired := 0
		last := Time(-1)
		for i := 0; i < count; i++ {
			at := Time(rng.Int63n(1000))
			e.Schedule(at, func() {
				if e.Now() < last {
					t.Errorf("clock went backwards: %v after %v", e.Now(), last)
				}
				last = e.Now()
				fired++
			})
		}
		e.Run()
		return fired == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEngineHeavyInterleaving stresses nested scheduling and cancellation.
func TestEngineHeavyInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	var pending []Event
	fired := 0
	var spawn func()
	spawn = func() {
		fired++
		if fired < 5000 {
			ev := e.After(Time(rng.Int63n(100)+1), spawn)
			pending = append(pending, ev)
			if len(pending) > 10 && rng.Intn(4) == 0 {
				e.Cancel(pending[rng.Intn(len(pending))])
			}
		}
	}
	e.Schedule(0, spawn)
	e.Run()
	if fired == 0 {
		t.Fatal("nothing fired")
	}
	if e.Len() != 0 {
		t.Errorf("queue not drained: %d", e.Len())
	}
}

func TestEngineRunChunk(t *testing.T) {
	eng := NewEngine()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(Time(i)*Microsecond, func() { fired = append(fired, i) })
	}
	// Three events per chunk: events remain after the first two chunks.
	if !eng.RunChunk(MaxTime, 3) || !eng.RunChunk(MaxTime, 3) {
		t.Fatal("RunChunk reported an empty queue with events pending")
	}
	if len(fired) != 6 {
		t.Fatalf("fired %d events after two chunks of 3", len(fired))
	}
	for eng.RunChunk(MaxTime, 3) {
	}
	if len(fired) != 10 {
		t.Fatalf("fired %d/10 events", len(fired))
	}
	// A deadline bounds the chunk just like RunUntil.
	eng2 := NewEngine()
	ran := 0
	for i := 0; i < 5; i++ {
		eng2.Schedule(Time(i)*Microsecond, func() { ran++ })
	}
	for eng2.RunChunk(2*Microsecond, 2) {
	}
	if ran != 3 {
		t.Errorf("ran %d events up to 2us, want 3", ran)
	}
	if eng2.Now() != 2*Microsecond {
		t.Errorf("clock at %v after chunks to 2us", eng2.Now())
	}
	eng2.AdvanceTo(4 * Microsecond)
	if eng2.Now() != 4*Microsecond {
		t.Errorf("AdvanceTo left clock at %v", eng2.Now())
	}
	eng2.AdvanceTo(1 * Microsecond) // backwards: no-op
	if eng2.Now() != 4*Microsecond {
		t.Errorf("AdvanceTo moved the clock backwards to %v", eng2.Now())
	}
}

func TestEngineRunChunkStopped(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(0, func() { eng.Stop() })
	eng.Schedule(Microsecond, func() { t.Error("event ran after Stop") })
	if eng.RunChunk(MaxTime, 100) {
		t.Error("RunChunk reported runnable events on a stopped engine")
	}
	eng.AdvanceTo(Second)
	if eng.Now() != 0 {
		t.Errorf("AdvanceTo advanced a stopped engine to %v", eng.Now())
	}
}

func TestEngineTracer(t *testing.T) {
	eng := NewEngine()
	if eng.Tracer() != nil {
		t.Error("fresh engine has a tracer")
	}
	tr := trace.Nop{}
	eng.SetTracer(tr)
	if eng.Tracer() != tr {
		t.Error("Tracer() did not return the attached tracer")
	}
	eng.SetTracer(nil)
	if eng.Tracer() != nil {
		t.Error("SetTracer(nil) did not detach")
	}
}
