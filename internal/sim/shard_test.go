package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ecnsharp/internal/trace"
)

// pingPong wires two domains exchanging a token through handoffs with the
// given propagation delay, logging every arrival as "dom@time", and
// returns the merged log after running to completion.
func pingPong(t *testing.T, workers int, hops int, prop Time) string {
	t.Helper()
	se := NewShardedEngine(2, prop, workers)
	logs := [2][]string{}
	var h01, h10 *Handoff
	remaining := hops
	h01 = se.NewHandoff(se.Domain(1), func(any) {
		now := se.Domain(1).Now()
		logs[1] = append(logs[1], fmt.Sprintf("1@%d", int64(now)))
		if remaining--; remaining > 0 {
			h10.Send(now+prop, nil)
		}
	})
	h10 = se.NewHandoff(se.Domain(0), func(any) {
		now := se.Domain(0).Now()
		logs[0] = append(logs[0], fmt.Sprintf("0@%d", int64(now)))
		if remaining--; remaining > 0 {
			h01.Send(now+prop, nil)
		}
	})
	se.Domain(0).Schedule(0, func() { h01.Send(se.Domain(0).Now()+prop, nil) })
	se.Run()
	return strings.Join(append(logs[0], logs[1]...), " ")
}

// TestShardedPingPong: a token bouncing between two domains arrives at
// the propagation-delay cadence, identically at any worker count.
func TestShardedPingPong(t *testing.T) {
	const hops = 10
	prop := 5 * Microsecond
	serial := pingPong(t, 1, hops, prop)
	if serial == "" {
		t.Fatal("ping-pong produced no arrivals")
	}
	// Domain 1 sees arrivals at prop, 3*prop, ...; domain 0 at 2*prop, ...
	if want := fmt.Sprintf("1@%d", int64(prop)); !strings.Contains(serial, want) {
		t.Fatalf("log %q missing first arrival %q", serial, want)
	}
	if parallel := pingPong(t, 2, hops, prop); parallel != serial {
		t.Errorf("worker count changed the execution:\n 1 worker: %s\n 2 workers: %s", serial, parallel)
	}
}

// recorder captures merged trace events.
type recorder struct{ evs []trace.Event }

func (r *recorder) Trace(e trace.Event) { r.evs = append(r.evs, e) }

// TestShardedTraceMergeOrder: events buffered per domain within a window
// reach the user's tracer sorted by time, ties broken by domain, with
// each domain's emission order preserved.
func TestShardedTraceMergeOrder(t *testing.T) {
	se := NewShardedEngine(3, 100*Microsecond, 2)
	rec := &recorder{}
	se.SetTracer(rec)
	// Same window, deliberately adversarial scheduling order: domain 2
	// emits at t=10 and t=30, domain 0 at t=20 and t=30, domain 1 at t=10.
	emit := func(d int, at Time) {
		eng := se.Domain(d)
		dd := d
		eng.Schedule(at, func() {
			eng.Tracer().Trace(trace.Event{Type: trace.Enqueue, At: int64(eng.Now()), Src: dd, Dst: -1, Port: -1, Queue: -1})
		})
	}
	emit(2, 10)
	emit(2, 30)
	emit(0, 20)
	emit(0, 30)
	emit(1, 10)
	se.Run()

	var got []string
	for _, e := range rec.evs {
		got = append(got, fmt.Sprintf("%d@%d", e.Src, e.At))
	}
	want := []string{"1@10", "2@10", "0@20", "0@30", "2@30"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("merged order = %v, want %v", got, want)
	}
}

// TestShardedTraceMergeMatchesSort: on random emissions — few distinct
// times, so ties across domains are the common case, and some domains
// silent in a window — the merged stream is the stable sort of every
// emission by (time, domain).
func TestShardedTraceMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		domains := 1 + rng.Intn(9)
		se := NewShardedEngine(domains, 4*Nanosecond, 1+rng.Intn(3))
		rec := &recorder{}
		se.SetTracer(rec)
		var want []trace.Event
		for d := 0; d < domains; d++ {
			eng := se.Domain(d)
			for k, n := 0, rng.Intn(12); k < n; k++ {
				e := trace.Event{Type: trace.Enqueue, At: int64(rng.Intn(16)), Src: d, Seq: int64(k)}
				want = append(want, e)
				eng.Schedule(Time(e.At), func() { eng.Tracer().Trace(e) })
			}
		}
		se.Run()
		// Each domain emits in (time, schedule order); the merge must keep
		// that order within a domain and break time ties by domain.
		slices.SortStableFunc(want, func(a, b trace.Event) int {
			return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Src, b.Src))
		})
		if !slices.Equal(rec.evs, want) {
			t.Fatalf("iter %d (%d domains): merged %v, want %v", iter, domains, rec.evs, want)
		}
	}
}

// TestShardedTracerReattach: SetTracer between partial runs rebinds the
// merged stream without duplicating or losing events.
func TestShardedTracerReattach(t *testing.T) {
	se := NewShardedEngine(2, 10*Microsecond, 1)
	emitAt := func(d int, at Time) {
		eng := se.Domain(d)
		eng.Schedule(at, func() {
			if tr := eng.Tracer(); tr != nil {
				tr.Trace(trace.Event{Type: trace.Enqueue, At: int64(eng.Now()), Src: d, Dst: -1, Port: -1, Queue: -1})
			}
		})
	}
	emitAt(0, 5)
	emitAt(1, 25)
	first, second := &recorder{}, &recorder{}
	se.SetTracer(first)
	se.SetTracer(first) // idempotent: same tracer again is a no-op rewire
	se.RunUntil(15)
	se.SetTracer(second)
	se.RunUntil(40)
	if len(first.evs) != 1 || first.evs[0].At != 5 {
		t.Errorf("first tracer saw %v, want exactly the t=5 event", first.evs)
	}
	if len(second.evs) != 1 || second.evs[0].At != 25 {
		t.Errorf("second tracer saw %v, want exactly the t=25 event", second.evs)
	}
	se.SetTracer(nil)
	if se.DomainTracer(0) != nil {
		t.Error("DomainTracer should be nil after detaching")
	}
}

// TestShardedRunUntil: events beyond the deadline stay queued and every
// domain clock lands exactly on the deadline.
func TestShardedRunUntil(t *testing.T) {
	se := NewShardedEngine(2, Microsecond, 2)
	fired := [2]int{}
	se.Domain(0).Schedule(500, func() { fired[0]++ })
	se.Domain(1).Schedule(1500, func() { fired[1]++ })
	se.RunUntil(1000)
	if fired != [2]int{1, 0} {
		t.Fatalf("fired = %v, want [1 0]", fired)
	}
	for d := 0; d < 2; d++ {
		if now := se.Domain(d).Now(); now != 1000 {
			t.Errorf("domain %d clock = %v, want 1000", d, now)
		}
	}
	se.RunUntil(2000)
	if fired != [2]int{1, 1} {
		t.Errorf("after second run fired = %v, want [1 1]", fired)
	}
}

// TestHandoffLookaheadViolationPanics: a handoff landing inside the
// current window means the declared lookahead was wrong; the engine must
// refuse rather than corrupt causality.
func TestHandoffLookaheadViolationPanics(t *testing.T) {
	se := NewShardedEngine(2, 100*Microsecond, 1)
	h := se.NewHandoff(se.Domain(1), func(any) {})
	se.Domain(0).Schedule(10, func() {
		h.Send(se.Domain(0).Now()+Microsecond, nil) // arrival well inside [0, 100µs)
	})
	defer func() {
		if recover() == nil {
			t.Error("lookahead violation did not panic")
		}
	}()
	se.Run()
}

// TestShardedWorkerPanicPropagates: a callback panic on a worker
// goroutine resurfaces as a panic of the coordinator's Run, like on the
// serial engine, instead of crashing the process.
func TestShardedWorkerPanicPropagates(t *testing.T) {
	se := NewShardedEngine(4, Microsecond, 4)
	for d := 0; d < 4; d++ {
		eng := se.Domain(d)
		boom := d == 2
		eng.Schedule(100, func() {
			if boom {
				panic("worker callback failure")
			}
		})
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Error("worker panic did not propagate")
		} else if !strings.Contains(fmt.Sprint(r), "worker callback failure") {
			t.Errorf("unexpected panic value %v", r)
		}
	}()
	se.Run()
}

// TestShardedPollStops: a poll error stops the run between windows and is
// returned.
func TestShardedPollStops(t *testing.T) {
	se := NewShardedEngine(2, Microsecond, 2)
	executed := 0
	for i := 0; i < 100; i++ {
		d := i % 2
		se.Domain(d).Schedule(Time(i)*10*Microsecond, func() { executed++ })
	}
	polls := 0
	err := se.RunPoll(MaxTime, 1, func() error {
		polls++
		if polls > 3 {
			return fmt.Errorf("canceled")
		}
		return nil
	})
	if err == nil {
		t.Fatal("poll error was not returned")
	}
	if executed == 0 || executed == 100 {
		t.Errorf("executed = %d, want a partial run", executed)
	}
}

// TestShardedProcessedMatchesSerial: the same workload executes the same
// number of events at any worker count (a coarse cross-check that no
// window is skipped or double-run).
func TestShardedProcessedMatchesSerial(t *testing.T) {
	build := func(workers int) *ShardedEngine {
		se := NewShardedEngine(4, Microsecond, workers)
		for d := 0; d < 4; d++ {
			eng := se.Domain(d)
			var cascade func()
			n := 0
			cascade = func() {
				if n++; n < 50 {
					eng.After(Time(n)*100*Nanosecond, cascade)
				}
			}
			eng.Schedule(Time(d)*Microsecond, cascade)
		}
		return se
	}
	se1 := build(1)
	se1.Run()
	se4 := build(4)
	se4.Run()
	if se1.Processed() != se4.Processed() {
		t.Errorf("processed events differ: 1 worker = %d, 4 workers = %d", se1.Processed(), se4.Processed())
	}
	if se1.Processed() != 200 {
		t.Errorf("processed = %d, want 200", se1.Processed())
	}
	if se1.Windows() == 0 {
		t.Error("no synchronization windows executed")
	}
}

// withProcs runs f with GOMAXPROCS at least n, so a run asking for n
// workers gets them on any machine.
func withProcs(n int, f func()) {
	if runtime.GOMAXPROCS(0) < n {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	f()
}

// TestShardedWorkersExit: however a multi-worker run ends — drained, a
// poll error, or a callback panic re-raised on the caller — its worker
// goroutines are gone when RunPoll returns, and they did exist during it.
func TestShardedWorkersExit(t *testing.T) {
	type ending struct {
		name string
		run  func(se *ShardedEngine) (panicked any, err error)
	}
	endings := []ending{
		{"drained", func(se *ShardedEngine) (any, error) { return nil, se.RunPoll(MaxTime, 0, nil) }},
		{"poll error", func(se *ShardedEngine) (any, error) {
			polls := 0
			return nil, se.RunPoll(MaxTime, 1, func() error {
				if polls++; polls > 3 {
					return fmt.Errorf("canceled")
				}
				return nil
			})
		}},
		{"panic", func(se *ShardedEngine) (panicked any, err error) {
			se.Domain(len(se.doms)-1).Schedule(30*Microsecond, func() { panic("worker callback failure") })
			defer func() { panicked = recover() }()
			return nil, se.RunPoll(MaxTime, 0, nil)
		}},
	}
	for _, workers := range []int{2, 4} {
		for _, end := range endings {
			withProcs(workers, func() {
				before := runtime.NumGoroutine()
				se := NewShardedEngine(workers, Microsecond, workers)
				during := make([]int, workers) // per domain: domains run concurrently
				for d := 0; d < workers; d++ {
					eng, d := se.Domain(d), d
					for i := 0; i < 100; i++ {
						eng.Schedule(Time(i)*Microsecond, func() { during[d] = max(during[d], runtime.NumGoroutine()) })
					}
				}
				panicked, err := end.run(se)
				switch end.name {
				case "drained":
					if err != nil || se.Processed() != uint64(100*workers) {
						t.Errorf("%d workers, %s: err %v after %d events", workers, end.name, err, se.Processed())
					}
				case "poll error":
					if err == nil || se.Processed() == uint64(100*workers) {
						t.Errorf("%d workers, %s: err %v after %d events, want a partial run", workers, end.name, err, se.Processed())
					}
				case "panic":
					if !strings.Contains(fmt.Sprint(panicked), "worker callback failure") {
						t.Errorf("%d workers, %s: recovered %v on the caller", workers, end.name, panicked)
					}
				}
				if peak := slices.Max(during); peak < before+workers-1 {
					t.Errorf("%d workers, %s: %d goroutines during the run, %d before: the workers never started", workers, end.name, peak, before)
				}
				// RunPoll waits for its workers to finish, but a goroutine
				// that has signalled its exit still counts until it returns.
				after := runtime.NumGoroutine()
				for i := 0; i < 100 && after != before; i++ {
					time.Sleep(time.Millisecond)
					after = runtime.NumGoroutine()
				}
				if after != before {
					t.Errorf("%d workers, %s: %d goroutines after the run, %d before", workers, end.name, after, before)
				}
			})
		}
	}
}

// TestHandoffTieFiresInRegistrationOrder: two handoffs into one
// destination deliver at the same nanosecond. They are registered in the
// opposite order to their source domains and to those domains' workers,
// so only a drain in registration order fires them as registered, at any
// worker count.
func TestHandoffTieFiresInRegistrationOrder(t *testing.T) {
	const lookahead = Microsecond
	for _, workers := range []int{1, 2, 4} {
		withProcs(workers, func() {
			se := NewShardedEngine(4, lookahead, workers)
			dst := se.Domain(0)
			var got []string
			// Domain 3 runs on a later worker than domain 2 at 2 and 4
			// workers; its handoff is registered first.
			from3 := se.NewHandoffFrom(se.Domain(3), dst, func(any) { got = append(got, fmt.Sprintf("from3@%d", dst.Now())) })
			from2 := se.NewHandoffFrom(se.Domain(2), dst, func(any) { got = append(got, fmt.Sprintf("from2@%d", dst.Now())) })
			for _, s := range []struct {
				src int
				h   *Handoff
			}{{2, from2}, {3, from3}} {
				eng, h := se.Domain(s.src), s.h
				eng.Schedule(100, func() { h.Send(eng.Now()+lookahead, nil) })
			}
			se.Run()
			want := "from3@1100 from2@1100"
			if g := strings.Join(got, " "); g != want {
				t.Errorf("%d workers: delivered %q, want %q", workers, g, want)
			}
			if r := se.Report(); r.HandoffMsgs != 2 || r.HandoffDrains != 2 {
				t.Errorf("%d workers: report %+v, want 2 messages in 2 drains", workers, r)
			}
		})
	}
}

// TestHandoffTotals: a run stopped by its poll function mid-traffic, and
// the same traffic drained, both inject every message a domain sent, so
// HandoffTotals' sent-to and injected counts agree domain by domain, and
// each domain's sent count is what it sent.
func TestHandoffTotals(t *testing.T) {
	for _, stopAfter := range []int{3, 1 << 30} {
		se := NewShardedEngine(3, Microsecond, 2)
		hs := []*Handoff{
			se.NewHandoffFrom(se.Domain(0), se.Domain(1), func(any) {}),
			se.NewHandoffFrom(se.Domain(0), se.Domain(2), func(any) {}),
			se.NewHandoffFrom(se.Domain(2), se.Domain(1), func(any) {}),
		}
		src := []int{0, 0, 2}
		for i := 0; i < 30; i++ {
			h, eng := hs[i%3], se.Domain(src[i%3])
			eng.Schedule(Time(i)*3*Microsecond, func() { h.Send(eng.Now()+Microsecond, nil) })
		}
		polls := 0
		err := se.RunPoll(MaxTime, 1, func() error {
			if polls++; polls > stopAfter {
				return fmt.Errorf("stop")
			}
			return nil
		})
		out, to, in := se.HandoffTotals()
		for d := range to {
			if to[d] != in[d] {
				t.Errorf("stop after %d polls (err %v): domain %d was sent %d messages, %d injected", stopAfter, err, d, to[d], in[d])
			}
		}
		if stopAfter > 30 && (out[0] != 20 || out[1] != 0 || out[2] != 10 || to[1] != 20 || to[2] != 10) {
			t.Errorf("drained run: domains sent %v and were sent %v, want [20 0 10] and [0 20 10]", out, to)
		}
	}
}
