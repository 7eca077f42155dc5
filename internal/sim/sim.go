// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every experiment in this repository: it
// owns the virtual clock and a priority queue of timestamped events. The
// network elements of one domain (links, switches, transports) schedule
// callbacks on that domain's *Engine; a ShardedEngine runs the domains'
// engines to completion, which executes the simulation.
//
// Determinism: events with equal timestamps fire in scheduling order (a
// monotonic sequence number breaks ties), and all randomness must flow
// through explicitly seeded sources, so a simulation is a pure function of
// its configuration and seed.
//
// Memory discipline: the event queue is a monotone radix heap over value
// slices (a simulation never schedules before the time it last extracted,
// which is the monotonicity a radix heap needs), and event payloads live in
// a slot arena recycled through a free list, so steady-state scheduling
// performs zero heap allocations. Cancel removes the event from the queue
// and frees its slot at once, so the queue and the arena hold live events
// only. Schedule returns a generation-counted Event handle (a small value,
// not a pointer): canceling a handle whose slot has been recycled is a
// no-op, so the classic "cancel a timer that already fired" race cannot
// corrupt an unrelated event. See DESIGN.md "Hot path & memory discipline".
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"ecnsharp/internal/trace"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations expressed in simulation time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxInt64)

// Duration converts t to a time.Duration for formatting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string { return t.Duration().String() }

// FromDuration converts a time.Duration to a simulation Time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Micros constructs a Time from a microsecond count.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Millis constructs a Time from a millisecond count.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Event is a generation-counted handle to a scheduled callback. It is a
// small value (not a pointer): copying it is free and holding one does not
// keep the callback alive. The zero Event references nothing — canceling
// it is a no-op and Valid reports false — so struct fields of type Event
// need no sentinel beyond their zero value.
//
// A handle is invalidated when its event fires or is canceled; the slot it
// referenced may then be recycled for a future event. The generation
// counter guarantees a stale handle can never cancel (or observe) the
// slot's next tenant.
type Event struct {
	slot int32 // arena index + 1; 0 means "no event"
	gen  uint32
}

// Valid reports whether the handle was issued by Schedule/After (i.e. is
// not the zero Event). It does not imply the event is still pending — use
// Engine.Pending for liveness.
func (ev Event) Valid() bool { return ev.slot != 0 }

// slot holds one scheduled callback in the engine's arena. Exactly one of
// fn and afn is non-nil while the slot is in use; bkt and idx locate the
// event's queue entry so Cancel can remove it without searching.
type slot struct {
	fn   func()
	afn  func(any)
	arg  any
	gen  uint32
	next int32 // free-list link; -1 while the slot is in use
	idx  int32 // position of the entry within its bucket
	bkt  uint8 // bucket holding the entry
}

// entry is one element of the event queue: the ordering key (at, seq) by
// value plus the arena index of the payload. Keeping the key inline means
// moving entries between buckets touches no pointers. A negative slot is a
// tombstone left by Cancel; only bucket 0 holds any.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// smallSort is the bucket size up to which refill orders same-time entries
// by insertion; larger same-time bursts take the library sort, so a burst
// is never quadratic.
const smallSort = 16

// Engine is a single-threaded discrete-event scheduler.
//
// An Engine must not be shared between goroutines; run independent
// simulations on independent engines to parallelize experiments.
//
// The event queue is a monotone radix heap keyed on the firing time. last
// is the time of the most recent extraction and every queued entry has
// at >= last (Schedule refuses at < now, and last <= now). An entry lives
// in bucket bits.Len64(at ^ last): bucket 0 holds the entries due exactly
// at last, in seq order, and bucket b >= 1 the entries whose time first
// differs from last at bit b-1, unordered. Times in a lower bucket are
// smaller than times in a higher one, so the next event is the head of
// bucket 0 or, when that is empty, the minimum of the lowest occupied
// bucket; extracting it moves last there and redistributes that one
// bucket, every entry of which lands strictly lower.
type Engine struct {
	now  Time
	seq  uint64
	last Time
	// minAt caches the smallest time in buckets 1..63: MaxTime while they
	// are empty, -1 when it has to be found by scanning the lowest one.
	minAt   Time
	mask    uint64 // bit b is set iff bucket b >= 1 is non-empty
	head    int    // first unfired entry of bucket 0; never a tombstone
	n       int    // live events
	buckets [64][]entry
	slots   []slot
	free    int32 // head of the slot free list; -1 when empty
	stopped bool
	tracer  trace.Tracer
	// Processed counts events executed; useful for progress reporting and
	// runaway detection in tests.
	Processed uint64
	// refills counts the refills of bucket 0 and moves the entries they
	// redistributed (RunReport).
	refills, moves uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{free: -1, minAt: MaxTime} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// SetTracer attaches t as the engine-wide event observer. Components that
// hold the engine (transports, samplers) emit their trace events through it,
// timestamped with the engine clock; nil (the default) disables tracing, and
// emission sites pay only a nil check. The switch queue layer is attached
// separately per port (see topology.Net.AttachTracer), since a queue event
// also carries the port identity.
func (e *Engine) SetTracer(t trace.Tracer) { e.tracer = t }

// Tracer returns the attached tracer, or nil when tracing is disabled.
// Emitters must check for nil before building an event so that the disabled
// path does no work.
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// Len returns the number of queued events. It is exact: a canceled event
// leaves the queue when Cancel returns.
func (e *Engine) Len() int { return e.n }

// alloc pops a slot from the free list, growing the arena when empty.
func (e *Engine) alloc() int32 {
	if s := e.free; s >= 0 {
		e.free = e.slots[s].next
		e.slots[s].next = -1
		return s
	}
	e.slots = append(e.slots, slot{gen: 1, next: -1})
	return int32(len(e.slots) - 1)
}

// release clears a slot's payload and returns it to the free list. The
// generation bump invalidates every handle issued for the departing tenant.
func (e *Engine) release(s int32) {
	sl := &e.slots[s]
	sl.fn, sl.afn, sl.arg = nil, nil, nil
	sl.gen++
	sl.next = e.free
	e.free = s
}

// push appends en to the bucket its time selects and records the position
// in its slot. A fresh seq is the largest, so appending keeps bucket 0 in
// seq order.
func (e *Engine) push(en entry) {
	b := bits.Len64(uint64(en.at ^ e.last))
	if b > 0 {
		e.mask |= 1 << b
		if en.at < e.minAt {
			e.minAt = en.at
		}
	}
	sl := &e.slots[en.slot]
	sl.bkt, sl.idx = uint8(b), int32(len(e.buckets[b]))
	e.buckets[b] = append(e.buckets[b], en)
	e.n++
}

// pop removes and returns the minimum entry. The queue must be non-empty.
func (e *Engine) pop() entry {
	if e.head == len(e.buckets[0]) {
		b := bits.TrailingZeros64(e.mask)
		if q := e.buckets[b]; len(q) == 1 {
			// A lone entry is the minimum: take it where it is.
			en := q[0]
			e.buckets[b] = q[:0]
			e.mask &^= 1 << b
			e.last = en.at
			e.minAt = MaxTime
			if e.mask != 0 {
				e.minAt = -1
			}
			e.n--
			return en
		}
		e.refill(b)
	}
	en := e.buckets[0][e.head]
	e.advance(e.head + 1)
	e.n--
	return en
}

// advance moves head to the first live entry of bucket 0 at or after h,
// and truncates the bucket once nothing live is left in it.
func (e *Engine) advance(h int) {
	b0 := e.buckets[0]
	for h < len(b0) && b0[h].slot < 0 {
		h++
	}
	if h == len(b0) {
		e.buckets[0], h = b0[:0], 0
	}
	e.head = h
}

// refill moves last to the earliest queued time and redistributes b, the
// lowest occupied bucket, whose minimum that is; the entries due at the new
// last land in bucket 0 and are put in seq order. Bucket 0 must be empty.
func (e *Engine) refill(b int) {
	src := e.buckets[b]
	if e.minAt < 0 {
		e.minAt = minTime(src)
	}
	e.last = e.minAt
	e.refills++
	e.moves += uint64(len(src))
	e.buckets[b] = src[:0]
	e.mask &^= 1 << b
	// Push the entries again, now relative to the new last. Lower buckets
	// hold smaller times, so the next minimum is among the entries that
	// land in buckets 1..b-1, if any do; push tracks it in minAt.
	e.n -= len(src)
	e.minAt = MaxTime
	for _, en := range src {
		e.push(en)
	}
	if e.minAt == MaxTime && e.mask != 0 {
		e.minAt = -1 // nothing landed below b: scan the next occupied bucket
	}

	b0 := e.buckets[0]
	if len(b0) == 1 {
		return // in order, and its slot already says index 0
	}
	if len(b0) <= smallSort {
		for i := 1; i < len(b0); i++ {
			en := b0[i]
			j := i
			for ; j > 0 && b0[j-1].seq > en.seq; j-- {
				b0[j] = b0[j-1]
			}
			b0[j] = en
		}
	} else {
		slices.SortFunc(b0, func(x, y entry) int { return cmp.Compare(x.seq, y.seq) })
	}
	for i := range b0 {
		e.slots[b0[i].slot].idx = int32(i)
	}
}

// minTime returns the smallest time in q, which must be non-empty.
func minTime(q []entry) Time {
	lo := q[0].at
	for _, en := range q[1:] {
		if en.at < lo {
			lo = en.at
		}
	}
	return lo
}

// remove takes the queue entry of slot s out of its bucket: above bucket 0
// the bucket's last entry fills the hole, inside bucket 0 (which is kept in
// seq order) a tombstone stays until head passes it.
func (e *Engine) remove(s int32) {
	sl := &e.slots[s]
	b, i := sl.bkt, int(sl.idx)
	if b == 0 {
		e.buckets[0][i].slot = -1
		if i == e.head {
			e.advance(i + 1)
		}
	} else {
		q := e.buckets[b]
		at := q[i].at
		n := len(q) - 1
		if i != n {
			q[i] = q[n]
			e.slots[q[i].slot].idx = int32(i)
		}
		e.buckets[b] = q[:n]
		if n == 0 {
			e.mask &^= 1 << b
		}
		if e.mask == 0 {
			e.minAt = MaxTime
		} else if at == e.minAt {
			e.minAt = -1
		}
	}
	e.n--
}

// schedule is the common enqueue path; exactly one of fn/afn is non-nil.
func (e *Engine) schedule(at Time, fn func(), afn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	s := e.alloc()
	sl := &e.slots[s]
	sl.fn, sl.afn, sl.arg = fn, afn, arg
	e.push(entry{at: at, seq: e.seq, slot: s})
	e.seq++
	return Event{slot: s + 1, gen: sl.gen}
}

// Schedule runs fn at absolute time at. Scheduling in the past (before the
// current clock) panics: it always indicates a modelling bug.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("sim: schedule of nil callback")
	}
	return e.schedule(at, fn, nil, nil)
}

// ScheduleArg runs fn(arg) at absolute time at. It exists for hot paths
// that would otherwise close over per-event state: a caller can bind fn
// once (per port, per host) and pass the varying state as arg, so
// scheduling allocates nothing. Passing a pointer as arg does not allocate;
// passing a non-pointer value boxes it.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: schedule of nil callback")
	}
	return e.schedule(at, nil, fn, arg)
}

// After runs fn after delay d from the current time.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// AfterArg runs fn(arg) after delay d from the current time; see
// ScheduleArg for when to prefer it over After.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleArg(e.now+d, fn, arg)
}

// Cancel removes the referenced event from the queue and frees its slot,
// so it will not fire. Canceling the zero Event, an already-canceled event,
// an already-fired event, or a handle whose slot has been recycled for a
// newer event is a no-op.
func (e *Engine) Cancel(ev Event) {
	i := ev.slot - 1
	if i < 0 || int(i) >= len(e.slots) {
		return
	}
	if e.slots[i].gen != ev.gen {
		return // fired, canceled, or recycled since the handle was issued
	}
	e.remove(i)
	e.release(i)
}

// EachArg calls f with the argument of every queued event scheduled with
// one (ScheduleArg, AfterArg), in arena order; a conservation check uses it
// to find what is still in flight when a run stops. f must not schedule or
// cancel.
func (e *Engine) EachArg(f func(arg any)) {
	for i := range e.slots {
		if sl := &e.slots[i]; sl.afn != nil {
			f(sl.arg)
		}
	}
}

// Step executes the next event. It reports false when no events remain or
// the engine was stopped.
func (e *Engine) Step() bool {
	if e.n == 0 || e.stopped {
		return false
	}
	en := e.pop()
	sl := &e.slots[en.slot]
	fn, afn, arg := sl.fn, sl.afn, sl.arg
	// The slot is recycled before the callback runs, so an event
	// rescheduling itself reuses its own slot (at a new generation).
	e.release(en.slot)
	if en.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = en.at
	e.Processed++
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it advanced past fewer events). Events after the deadline
// remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.RunChunk(deadline, 1<<20) {
	}
	e.AdvanceTo(deadline)
}

// RunChunk executes at most limit events with timestamps <= deadline and
// reports whether runnable events at or before the deadline remain. It is
// the building block for externally interruptible runs: callers alternate
// RunChunk with checks of a cancellation signal (see experiments.RunContext).
// Unlike RunUntil it never advances the clock past the last executed event;
// chunked callers that need RunUntil's clock semantics call AdvanceTo after
// the final chunk.
func (e *Engine) RunChunk(deadline Time, limit int) bool {
	for i := 0; i < limit; i++ {
		if e.stopped {
			return false
		}
		at, ok := e.peek()
		if !ok || at > deadline {
			return false
		}
		e.Step()
	}
	if e.stopped {
		return false
	}
	at, ok := e.peek()
	return ok && at <= deadline
}

// AdvanceTo moves the clock forward to t without executing events; moving
// backwards or advancing a stopped engine is a no-op.
func (e *Engine) AdvanceTo(t Time) {
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// peek returns the firing time of the next event. It must leave last where
// it is: RunChunk peeks past its deadline, and the caller may then schedule
// before the time peek reported (a handoff injected at a window barrier, an
// event added after RunUntil returned).
func (e *Engine) peek() (Time, bool) {
	if e.head < len(e.buckets[0]) {
		return e.last, true
	}
	if e.mask == 0 {
		return 0, false
	}
	if e.minAt < 0 {
		e.minAt = minTime(e.buckets[bits.TrailingZeros64(e.mask)])
	}
	return e.minAt, true
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }
