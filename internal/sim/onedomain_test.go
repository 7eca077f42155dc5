package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ecnsharp/internal/trace"
)

// eventProgram installs a seeded random event program on eng: an initial
// batch of events that, as they fire, log themselves, emit a trace event
// through the engine's tracer, and — steered by one rng consumed in
// execution order, so any reordering snowballs into a different log —
// schedule nested After events, cancel pending ones and, when stopAt >= 0,
// Stop the engine at the stopAt-th firing. It returns the execution log.
func eventProgram(seed int64, eng *Engine, budget, stopAt int) *[]string {
	rng := rand.New(rand.NewSource(seed))
	log := &[]string{}
	var pending []Event
	nextID := 0
	var fire func(id int) func()
	spawn := func(delay Time) {
		if budget == 0 {
			return
		}
		budget--
		id := nextID
		nextID++
		pending = append(pending, eng.After(delay, fire(id)))
	}
	fire = func(id int) func() {
		return func() {
			*log = append(*log, fmt.Sprintf("%d@%d", id, int64(eng.Now())))
			if tr := eng.Tracer(); tr != nil {
				tr.Trace(trace.Event{Type: trace.FlowStart, At: int64(eng.Now()), FlowID: uint64(id)})
			}
			if len(*log) == stopAt+1 {
				eng.Stop()
			}
			// Zero delays and a coarse grid force same-timestamp ties.
			for n := rng.Intn(4); n > 0; n-- {
				spawn(Time(rng.Intn(4)) * 10 * Nanosecond)
			}
			if len(pending) > 0 && rng.Intn(4) == 0 {
				eng.Cancel(pending[rng.Intn(len(pending))]) // often stale: a no-op
			}
		}
	}
	for i := 0; i < 64; i++ {
		spawn(Time(rng.Intn(50)) * 10 * Nanosecond)
	}
	return log
}

// driver is one way of running a ShardedEngine.
type driver struct {
	name string
	run  func(*ShardedEngine)
}

// outcome is everything a driver can observe of a finished run.
type outcome struct {
	Log       []string
	Trace     []trace.Event
	Processed uint64
	Now       Time
	Stopped   bool
}

// TestOneDomainEqualsBareEngine: a one-domain ShardedEngine is the serial
// runtime. On seeded random event programs (schedule / cancel / nested
// After / Stop), every way of driving it — Run, RunUntil, RunPoll with and
// without a poll function, and a deadline reached through 100 successive
// RunPoll calls, as the DCQCN experiment samples its queue — yields the
// execution order, Processed count, clock and trace stream of a bare
// Engine driven by Run, RunUntil, or RunChunk+AdvanceTo, without ever
// opening a window.
func TestOneDomainEqualsBareEngine(t *testing.T) {
	const budget = 3000
	bare := func(seed int64, stopAt int, drive func(*Engine)) outcome {
		e := NewEngine()
		rec := &recorder{}
		e.SetTracer(rec)
		log := eventProgram(seed, e, budget, stopAt)
		drive(e)
		return outcome{*log, rec.evs, e.Processed, e.Now(), e.Stopped()}
	}
	sharded := func(seed int64, stopAt int, drive func(*ShardedEngine)) outcome {
		t.Helper()
		se := NewShardedEngine(1, Microsecond, 4)
		rec := &recorder{}
		se.SetTracer(rec)
		log := eventProgram(seed, se.Domain(0), budget, stopAt)
		drive(se)
		if se.Windows() != 0 {
			t.Fatalf("seed %d: one-domain engine executed %d windows", seed, se.Windows())
		}
		e := se.Domain(0)
		return outcome{*log, rec.evs, se.Processed(), e.Now(), e.Stopped()}
	}
	polls := 0
	poll := func() error { polls++; return nil }

	for seed := int64(1); seed <= 12; seed++ {
		stopAt := -1
		if seed%3 == 0 {
			stopAt = 500 + int(seed)*37
		}

		// To completion.
		want := bare(seed, stopAt, (*Engine).Run)
		if n := len(want.Log); stopAt < 0 && n < budget/2 {
			t.Fatalf("seed %d: program only ran %d events", seed, n)
		}
		for _, d := range []driver{
			{"Run", (*ShardedEngine).Run},
			{"RunPoll/nil", func(se *ShardedEngine) { _ = se.RunPoll(MaxTime, 0, nil) }},
			{"RunPoll/poll", func(se *ShardedEngine) { _ = se.RunPoll(MaxTime, 1, poll) }},
		} {
			if got := sharded(seed, stopAt, d.run); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: %s diverges from Engine.Run (processed %d vs %d, now %v vs %v)",
					seed, d.name, got.Processed, want.Processed, got.Now, want.Now)
			}
		}

		// To a deadline that cuts the program, leaving events queued.
		deadline := want.Now / 2
		want = bare(seed, stopAt, func(e *Engine) { e.RunUntil(deadline) })
		chunked := bare(seed, stopAt, func(e *Engine) {
			for e.RunChunk(deadline, 7) {
			}
			e.AdvanceTo(deadline)
		})
		if !reflect.DeepEqual(chunked, want) {
			t.Errorf("seed %d: RunChunk+AdvanceTo diverges from Engine.RunUntil", seed)
		}
		for _, d := range []driver{
			{"RunUntil", func(se *ShardedEngine) { se.RunUntil(deadline) }},
			{"RunPoll/nil", func(se *ShardedEngine) { _ = se.RunPoll(deadline, 0, nil) }},
			{"RunPoll/poll", func(se *ShardedEngine) { _ = se.RunPoll(deadline, 1, poll) }},
			{"100 steps", func(se *ShardedEngine) {
				for i := Time(1); i <= 100; i++ {
					_ = se.RunPoll(deadline*i/100, 4, poll)
				}
			}},
		} {
			if got := sharded(seed, stopAt, d.run); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: %s diverges from Engine.RunUntil (processed %d vs %d, now %v vs %v)",
					seed, d.name, got.Processed, want.Processed, got.Now, want.Now)
			}
		}
	}
	if polls == 0 {
		t.Error("RunPoll never called its poll function")
	}
}

// TestOneDomainPollErrorStops: a poll error ends a one-domain run at a
// chunk boundary, stops the engine and is returned to the caller.
func TestOneDomainPollErrorStops(t *testing.T) {
	se := NewShardedEngine(1, Microsecond, 1)
	eventProgram(1, se.Domain(0), 3*directChunk, -1)
	boom := errors.New("boom")
	calls := 0
	err := se.RunPoll(MaxTime, 1, func() error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunPoll returned %v, want the poll error", err)
	}
	if got := se.Processed(); got != 2*directChunk {
		t.Errorf("processed %d events before the failing poll, want %d", got, 2*directChunk)
	}
	if !se.Domain(0).Stopped() || se.Windows() != 0 {
		t.Errorf("stopped=%v windows=%d after a poll error", se.Domain(0).Stopped(), se.Windows())
	}
	se.Run()
	if got := se.Processed(); got != 2*directChunk {
		t.Errorf("a stopped engine ran on to %d events", got)
	}
}
