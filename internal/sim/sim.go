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
// slices of 16-byte entries (a simulation never schedules before the time it
// last extracted, which is the monotonicity a radix heap needs), and event
// payloads live in an arena of 32-byte slots recycled through a free list,
// so steady-state scheduling performs zero heap allocations. Cancel removes
// the event from the queue and frees its slot at once, so the queue and the
// arena hold live events only, and a bucket array far larger than the recent
// live count is let go when it empties, so a burst's high-water does not
// stay. Schedule returns a generation-counted Event handle (a small value,
// not a pointer): canceling a handle whose slot has been recycled is a
// no-op, so the classic "cancel a timer that already fired" race cannot
// corrupt an unrelated event. See DESIGN.md "Hot path & memory discipline".
package sim

import (
	"cmp"
	"errors"
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

// slot holds one scheduled callback in the engine's arena: fn(arg) for
// ScheduleArg/AfterArg, or, with fn nil, a Schedule/After callback riding
// in arg as a func(). pos packs the bucket and index of the event's queue
// entry (see packPos) so Cancel can remove it without searching; while the
// slot is free, pos is the free-list link instead.
type slot struct {
	fn  func(any)
	arg any
	gen uint32
	pos uint32
}

// entry is one element of the event queue, ordered by at and then key. key
// packs the sequence number above the arena index of the payload (see
// packKey); sequence numbers are unique, so comparing keys compares them.
// Keeping the ordering inline means moving entries between buckets touches
// no pointers. An entry whose slot part is tombstone was canceled; only
// bucket 0 holds any.
type entry struct {
	at  Time
	key uint64
}

// The packed limits. A key holds a 40-bit sequence number and a 24-bit arena
// index whose top value is the tombstone, so an engine schedules at most
// 2^40 events over its life and holds at most 2^24-1 at once. A position
// holds a 6-bit bucket and a 26-bit index. Each pack panics past its limit.
const (
	slotBits  = 24
	tombstone = 1<<slotBits - 1 // the slot part of a canceled entry
	maxSlot   = tombstone - 1
	maxSeq    = 1<<(64-slotBits) - 1
	idxBits   = 26
	maxIdx    = 1<<idxBits - 1
	freeEnd   = math.MaxUint32 // pos of the last free slot: the list ends
)

// The limits' panics. They are values, so the hot path that checks them
// converts nothing to an interface.
var (
	errSeqLimit  = errors.New("sim: an engine scheduled more than 2^40 events")
	errSlotLimit = errors.New("sim: an engine holds more than 2^24-1 queued events")
	errIdxLimit  = errors.New("sim: an event-queue bucket holds more than 2^26 entries")
)

// packKey packs a sequence number and an arena index into an entry key.
func packKey(seq uint64, s int32) uint64 {
	if seq > maxSeq {
		panic(errSeqLimit)
	}
	if uint32(s) > maxSlot {
		panic(errSlotLimit)
	}
	return seq<<slotBits | uint64(s)
}

// slot returns the arena index of the entry's payload, tombstone if the
// entry was canceled.
func (en entry) slot() int32 { return int32(en.key & tombstone) }

// packPos packs a bucket and an index within it into a slot's pos. It has
// no guard, so that push stays inlinable: buckets 1..63 hold live events
// only, fewer than 2^24, and bucket 0, which holds tombstones too, grows
// past its live events only by schedule's pushes, which checkRoom guards.
func packPos(b, i int) uint32 { return uint32(b)<<idxBits | uint32(i) }

// checkRoom panics unless a bucket holding n entries has an index left for
// one more.
func checkRoom(n int) {
	if n > maxIdx {
		panic(errIdxLimit)
	}
}

// unpackPos returns the bucket and index a pos packs.
func unpackPos(pos uint32) (b, i int) { return int(pos >> idxBits), int(pos & maxIdx) }

// smallSort is the bucket size up to which refill orders same-time entries
// by insertion; larger same-time bursts take the library sort, so a burst
// is never quadratic.
const smallSort = 16

// The release rule: a bucket array that refill empties is dropped, instead
// of kept for reuse, when its capacity exceeds both releaseMin entries and
// releaseFactor times the engine's recent high-water of live events. One
// burst (a cell's flow starts, a wave of host-delayed packets) then does not
// pin its size in every bucket it passed through. The high-water is the
// live count at a refill, or the previous high-water less 1/64
// (hiDecayShift) if that is larger: measured against the live count alone,
// a load that swings 16× between bursts (bench.ScheduleAndRun) would drop
// and regrow a bucket every cycle.
const (
	releaseMin    = 64
	releaseFactor = 4
	hiDecayShift  = 6
)

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
	hi      int    // live events' recent high-water (the release rule)
	buckets [64][]entry
	slots   []slot
	free    uint32 // head of the slot free list; freeEnd when empty
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
func NewEngine() *Engine { return &Engine{free: freeEnd, minAt: MaxTime} }

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
	if s := e.free; s != freeEnd {
		e.free = e.slots[s].pos
		return int32(s)
	}
	e.slots = append(e.slots, slot{gen: 1})
	return int32(len(e.slots) - 1)
}

// release clears a slot's payload and returns it to the free list. The
// generation bump invalidates every handle issued for the departing tenant.
func (e *Engine) release(s int32) {
	sl := &e.slots[s]
	sl.fn, sl.arg = nil, nil
	sl.gen++
	sl.pos = e.free
	e.free = uint32(s)
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
	e.slots[en.slot()].pos = packPos(b, len(e.buckets[b]))
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
	for h < len(b0) && b0[h].slot() == tombstone {
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
	// The release rule (see releaseFactor). A dropped array stays readable
	// through src, and none of the pushes below lands in bucket b.
	e.hi -= e.hi >> hiDecayShift
	if e.hi < e.n {
		e.hi = e.n
	}
	if c := cap(src); c > releaseMin && c > releaseFactor*e.hi {
		e.buckets[b] = nil
	} else {
		e.buckets[b] = src[:0]
	}
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
			for ; j > 0 && b0[j-1].key > en.key; j-- {
				b0[j] = b0[j-1]
			}
			b0[j] = en
		}
	} else {
		slices.SortFunc(b0, func(x, y entry) int { return cmp.Compare(x.key, y.key) })
	}
	for i := range b0 {
		e.slots[b0[i].slot()].pos = packPos(0, i)
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
	b, i := unpackPos(e.slots[s].pos)
	if b == 0 {
		e.buckets[0][i].key |= tombstone
		if i == e.head {
			e.advance(i + 1)
		}
	} else {
		q := e.buckets[b]
		at := q[i].at
		n := len(q) - 1
		if i != n {
			q[i] = q[n]
			e.slots[q[i].slot()].pos = packPos(b, i)
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

// schedule is the common enqueue path: fn(arg), or arg() with fn nil.
func (e *Engine) schedule(at Time, fn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	checkRoom(len(e.buckets[0]))
	s := e.alloc()
	sl := &e.slots[s]
	sl.fn, sl.arg = fn, arg
	e.push(entry{at: at, key: packKey(e.seq, s)})
	e.seq++
	return Event{slot: s + 1, gen: sl.gen}
}

// Schedule runs fn at absolute time at. Scheduling in the past (before the
// current clock) panics: it always indicates a modelling bug.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("sim: schedule of nil callback")
	}
	return e.schedule(at, nil, fn)
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
	return e.schedule(at, fn, arg)
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
		if sl := &e.slots[i]; sl.fn != nil {
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
	s := en.slot()
	sl := &e.slots[s]
	fn, arg := sl.fn, sl.arg
	// The slot is recycled before the callback runs, so an event
	// rescheduling itself reuses its own slot (at a new generation).
	e.release(s)
	if en.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = en.at
	e.Processed++
	if fn != nil {
		fn(arg)
	} else {
		arg.(func())()
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
