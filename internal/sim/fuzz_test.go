package sim

import (
	"slices"
	"sort"
	"testing"
)

// refQueue is the reference FuzzEngineOrder compares Engine against: a
// slice kept sorted by (at, seq), with each Engine entry point written the
// most direct way from its documentation. It has no buckets, no arena and
// no cached minimum, so it cannot share a bug with the radix heap.
type refQueue struct {
	now       Time
	seq       uint64
	evs       []refEvent
	stopped   bool
	processed uint64
	fire      func(id int)
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refQueue) schedule(at Time, id int) {
	if at < r.now {
		panic("refQueue: schedule in the past")
	}
	// A fresh seq is the largest, so the event goes after every equal time.
	i := sort.Search(len(r.evs), func(i int) bool { return r.evs[i].at > at })
	r.evs = slices.Insert(r.evs, i, refEvent{at: at, seq: r.seq, id: id})
	r.seq++
}

func (r *refQueue) index(id int) int {
	return slices.IndexFunc(r.evs, func(ev refEvent) bool { return ev.id == id })
}

func (r *refQueue) cancel(id int) {
	if i := r.index(id); i >= 0 {
		r.evs = slices.Delete(r.evs, i, i+1)
	}
}

func (r *refQueue) step() bool {
	if len(r.evs) == 0 || r.stopped {
		return false
	}
	ev := r.evs[0]
	r.evs = slices.Delete(r.evs, 0, 1)
	r.now = ev.at
	r.processed++
	r.fire(ev.id)
	return true
}

func (r *refQueue) runnable(deadline Time) bool {
	return !r.stopped && len(r.evs) > 0 && r.evs[0].at <= deadline
}

func (r *refQueue) runChunk(deadline Time, limit int) bool {
	for i := 0; i < limit; i++ {
		if !r.runnable(deadline) {
			return false
		}
		r.step()
	}
	return r.runnable(deadline)
}

func (r *refQueue) runUntil(deadline Time) {
	for r.runChunk(deadline, 1<<20) {
	}
	r.advanceTo(deadline)
}

func (r *refQueue) advanceTo(t Time) {
	if !r.stopped && r.now < t {
		r.now = t
	}
}

// fuzzMaxEvents bounds the events one input may create, so a callback chain
// that keeps spawning same-time children ends.
const fuzzMaxEvents = 2048

// fuzzSide is the part of a fuzz program that runs inside callbacks. Each
// of the two queues gets its own copy and the same input, so they stay in
// step exactly as long as they fire the same events in the same order.
type fuzzSide struct {
	data     []byte
	nextID   int
	fired    []int
	now      func() Time
	schedule func(at Time, id int)
	cancel   func(id int)
	stop     func()
}

func (s *fuzzSide) spawn(at Time) {
	if s.nextID < fuzzMaxEvents {
		s.nextID++
		s.schedule(at, s.nextID-1)
	}
}

// fire is event id's callback; what it does is a function of id and the
// input alone.
func (s *fuzzSide) fire(id int) {
	s.fired = append(s.fired, id)
	b := s.data[id%len(s.data)]
	arg := int(b >> 3)
	switch b % 8 {
	case 0:
		s.spawn(s.now()) // same-time child: appended to bucket 0 while it drains
	case 1:
		s.spawn(s.now() + Time(arg) + 1)
	case 2:
		s.spawn(s.now() + Time(arg)<<16)
	case 3:
		s.cancel(id) // its own handle, which has already fired
	case 4:
		s.cancel(id - 1 - arg) // an older event, pending or not
	case 5:
		// The armRTO pattern: cancel a timer and re-arm it 2 ms out.
		s.cancel(id + 1 + arg%4)
		s.spawn(s.now() + 2*Millisecond)
	case 6:
		if arg == 31 {
			s.stop()
		}
	}
}

// Top-level operations of a fuzz program; an op byte is taken mod opCount
// and followed by two operand bytes.
const (
	opSchedule = iota
	opScheduleBurst
	opCancel
	opStep
	opRunChunk
	opRunUntil
	opAdvanceTo
	opStop
	opCount
)

// fuzzDelta spreads two operand bytes over 0 … 255<<40 so that times cross
// the high radix buckets; fuzzMaxEvents such steps stay far below MaxTime.
func fuzzDelta(m, s byte) Time { return Time(m) << (s % 41) }

// runFuzzProgram executes data as a program on an Engine and on a refQueue
// and fails at the first operation after which they differ.
func runFuzzProgram(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	e := NewEngine()
	pc := 0
	check := func(context string) {
		t.Helper()
		if err := e.CheckHeapInvariant(); err != nil {
			t.Fatalf("op %d, after %s: %v", pc, context, err)
		}
	}

	// The engine side checks the heap after every mutation, including the
	// ones callbacks make while a pop is in progress.
	var handles []Event
	eng := &fuzzSide{data: data, now: e.Now, stop: e.Stop}
	eng.cancel = func(id int) {
		if id >= 0 && id < len(handles) {
			e.Cancel(handles[id])
			check("Cancel")
		}
	}
	fireArg := func(arg any) { eng.fire(arg.(int)) }
	eng.schedule = func(at Time, id int) {
		var ev Event
		switch id % 3 {
		case 0:
			ev = e.Schedule(at, func() { eng.fire(id) })
		case 1:
			ev = e.ScheduleArg(at, fireArg, id)
		default:
			ev = e.After(at-e.Now(), func() { eng.fire(id) })
		}
		handles = append(handles, ev)
		check("Schedule")
	}

	ref := &refQueue{}
	mod := &fuzzSide{data: data, now: func() Time { return ref.now }, schedule: ref.schedule,
		cancel: ref.cancel, stop: func() { ref.stopped = true }}
	ref.fire = mod.fire
	queued := make([]bool, fuzzMaxEvents) // scratch: ids the reference holds

	for ; pc+2 < len(data); pc += 3 {
		op, m, s := data[pc]%opCount, data[pc+1], data[pc+2]
		target := e.Now() + fuzzDelta(m, s)
		switch op {
		case opSchedule:
			eng.spawn(target)
			mod.spawn(target)
		case opScheduleBurst:
			for i := 0; i <= int(m%16); i++ {
				eng.spawn(e.Now() + Time(s))
				mod.spawn(ref.now + Time(s))
			}
		case opCancel:
			id := (int(m)<<8 | int(s)) % (eng.nextID + 1)
			eng.cancel(id)
			mod.cancel(id)
		case opStep:
			if got, want := e.Step(), ref.step(); got != want {
				t.Fatalf("op %d: Step = %v, reference %v", pc, got, want)
			}
		case opRunChunk:
			limit := 1 + int(s%8)
			if got, want := e.RunChunk(target, limit), ref.runChunk(target, limit); got != want {
				t.Fatalf("op %d: RunChunk(%v, %d) = %v, reference %v", pc, target, limit, got, want)
			}
		case opRunUntil:
			e.RunUntil(target)
			ref.runUntil(target)
		case opAdvanceTo:
			// Advancing past a queued event is a caller bug (the next Step
			// panics), so stay at or before the next one.
			if len(ref.evs) > 0 && target > ref.evs[0].at {
				target = ref.evs[0].at
			}
			e.AdvanceTo(target)
			ref.advanceTo(target)
		case opStop:
			if m == 0xff {
				e.Stop()
				ref.stopped = true
			}
		}
		check("the operation")
		if !slices.Equal(eng.fired, mod.fired) {
			n := 0
			for n < len(eng.fired) && n < len(mod.fired) && eng.fired[n] == mod.fired[n] {
				n++
			}
			t.Fatalf("op %d: firing order diverges at position %d: engine %v, reference %v",
				pc, n, eng.fired[n:], mod.fired[n:])
		}
		if e.Now() != ref.now || e.Len() != len(ref.evs) || e.Processed != ref.processed || e.Stopped() != ref.stopped {
			t.Fatalf("op %d: engine now=%v len=%d processed=%d stopped=%v, reference now=%v len=%d processed=%d stopped=%v",
				pc, e.Now(), e.Len(), e.Processed, e.Stopped(), ref.now, len(ref.evs), ref.processed, ref.stopped)
		}
		clear(queued)
		for _, ev := range ref.evs {
			queued[ev.id] = true
		}
		for id, h := range handles {
			if got, want := e.Pending(h), queued[id]; got != want {
				t.Fatalf("op %d: Pending(event %d) = %v, reference %v", pc, id, got, want)
			}
		}
	}
}

// fuzzSeeds are hand-written programs for the cases the radix heap can get
// wrong; the files under testdata/fuzz/FuzzEngineOrder add generated ones.
var fuzzSeeds = [][]byte{
	// Two events, RunUntil a deadline between them, then schedule at
	// now <= t < next and drain.
	{opSchedule, 10, 0, opSchedule, 200, 8, opRunUntil, 100, 0, opSchedule, 1, 0, opSchedule, 0, 0, opRunUntil, 255, 40},
	// The same through RunChunk and AdvanceTo.
	{opSchedule, 3, 20, opSchedule, 9, 32, opRunChunk, 1, 30, opAdvanceTo, 1, 31, opSchedule, 5, 3, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0},
	// A same-time burst, cancel inside bucket 0 (entry, then neighbour)
	// while it drains.
	{opScheduleBurst, 15, 7, opStep, 0, 0, opCancel, 0, 3, opCancel, 0, 2, opCancel, 0, 1, opStep, 0, 0, opCancel, 0, 15, opRunUntil, 1, 10},
	// Timer churn: every firing cancels a neighbour and re-arms 2 ms out.
	{opSchedule, 5, 0, opSchedule, 13, 1, opSchedule, 21, 2, opSchedule, 29, 3, opRunChunk, 255, 20, opRunChunk, 255, 22, opRunUntil, 255, 30},
	// Stop from a callback (behaviour byte 0xfe) and from the top level.
	{opSchedule, 0xfe, 0, opStep, 0, 0, opSchedule, 1, 1, opStep, 0, 0, opStop, 0xff, 0, opRunUntil, 1, 1},
	// Large deltas: buckets up to 2^48, then small steps inside them.
	{opSchedule, 255, 40, opSchedule, 1, 40, opSchedule, 1, 32, opSchedule, 1, 20, opSchedule, 255, 19, opStep, 0, 0, opSchedule, 1, 0, opRunUntil, 255, 40},
}

// FuzzEngineOrder drives random Schedule/ScheduleArg/After/Cancel/Step/
// RunChunk/RunUntil/AdvanceTo/Stop sequences, with callbacks that schedule,
// cancel and stop in turn, against refQueue and requires the same firing
// order, Now, Len, Pending and Processed after every operation, and a
// consistent radix heap throughout.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*fuzzMaxEvents {
			data = data[:3*fuzzMaxEvents]
		}
		runFuzzProgram(t, data)
	})
}
