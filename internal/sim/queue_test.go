package sim

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// mustHeap fails the test when the event queue's bookkeeping is inconsistent.
func mustHeap(t *testing.T, e *Engine, context string) {
	t.Helper()
	if err := e.CheckHeapInvariant(); err != nil {
		t.Fatalf("after %s: %v", context, err)
	}
}

// TestEngineEntryAndSlotSizes pins the two hot structs: entries are copied
// between buckets by value and slots are touched on every schedule, pop and
// cancel, so a grown field shows up in every cell. Four entries and two
// slots fill a cache line.
func TestEngineEntryAndSlotSizes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Errorf("entry is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(slot{}); got != 32 {
		t.Errorf("slot is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(domain{}); got != 64 {
		t.Errorf("domain is %d bytes, want 64: one cache line, which no other worker's domain shares", got)
	}
}

// TestEnginePackedLimits round-trips the packed sequence number, arena
// index, bucket and bucket index at 0 and at each limit, and shows that
// each guard panics one past its limit: packKey's for the first two,
// checkRoom (schedule's check on bucket 0) for the bucket index. The bucket
// has no guard: at and last are non-negative, so at ^ last selects bucket
// 63 at most.
func TestEnginePackedLimits(t *testing.T) {
	for _, c := range []struct {
		seq uint64
		s   int32
	}{{0, 0}, {maxSeq, 0}, {0, maxSlot}, {maxSeq, maxSlot}} {
		en := entry{key: packKey(c.seq, c.s)}
		if seq, s := en.key>>slotBits, en.slot(); seq != c.seq || s != c.s || s == tombstone {
			t.Errorf("packKey(%d, %d) unpacks to (%d, %d)", c.seq, c.s, seq, s)
		}
	}
	for _, c := range []struct{ b, i int }{{0, 0}, {63, 0}, {0, maxIdx}, {63, maxIdx}} {
		if b, i := unpackPos(packPos(c.b, c.i)); b != c.b || i != c.i {
			t.Errorf("packPos(%d, %d) unpacks to (%d, %d)", c.b, c.i, b, i)
		}
	}
	checkRoom(maxIdx) // a bucket of maxIdx entries has room for index maxIdx
	if got := bits.Len64(uint64(MaxTime ^ 0)); got != 63 {
		t.Errorf("the widest at ^ last selects bucket %d, want 63", got)
	}
	for name, pack := range map[string]func(){
		"sequence number": func() { packKey(maxSeq+1, 0) },
		"arena index":     func() { packKey(0, maxSlot+1) },
		"negative index":  func() { packKey(0, -1) },
		"bucket index":    func() { checkRoom(maxIdx + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s one past its limit packed without a panic", name)
				}
			}()
			pack()
		}()
	}
}

// TestEngineBurstReleasesBuckets: a burst of far-future events drains
// through the radix buckets, each of which grows to hold a share of it.
// Once steady traffic with far fewer live events has refilled those buckets,
// their arrays must have let the burst go. Steady traffic alone fills each
// bucket it reaches (up to bucket 23 by 4 ms ≈ 2^22 ns) with up to every
// live event when the clock crosses that bucket's bit, plus append's slack,
// so total capacity may reach steadyCapFactor times the live count, but no
// more; a queue that keeps every array still holds the burst's high-water,
// over 100× live. The same-time case puts the whole burst at one time, so
// it ends in bucket 0, which the head empties by running off its end rather
// than a refill.
func TestEngineBurstReleasesBuckets(t *testing.T) {
	const (
		timers          = 512
		steadyCapFactor = 32
	)
	for _, c := range []struct {
		name  string
		burst int
		at    func(i int) Time // the burst's i-th event time
		until Time             // steady traffic runs to here
	}{
		{"spread", 50_000, func(i int) Time { return 1<<20 + Time(i)*7 }, 4 * Millisecond},
		{"same_time", 100_000, func(int) Time { return 1 << 20 }, 20 * Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			for i := range c.burst {
				e.Schedule(c.at(i), func() {})
			}
			e.Run()
			peak := e.BucketCap()
			if peak < c.burst {
				t.Fatalf("the burst left %d entries of bucket capacity, want at least %d before steady traffic", peak, c.burst)
			}
			// Each timer re-arms itself every 1–1.5 µs. By 4 ms the clock
			// has crossed 3 × 2^20 ns, so steady traffic has refilled
			// bucket 21, where the whole burst sat first, and every bucket
			// below it.
			var tick func(any)
			tick = func(arg any) { e.AfterArg(Microsecond+Time(*arg.(*int32)), tick, arg) }
			delays := make([]int32, timers)
			for i := range delays {
				delays[i] = int32(i)
				e.AfterArg(Time(i), tick, &delays[i])
			}
			e.RunUntil(c.until)
			mustHeap(t, e, "steady traffic")
			if got := e.BucketCap(); got > steadyCapFactor*e.Len() {
				t.Errorf("bucket arrays hold %d entries for %d live events (peak %d): more than %d× live, so the burst's high-water stayed",
					got, e.Len(), peak, steadyCapFactor)
			}
			t.Logf("bucket capacity: %d after the burst, %d under %d live events", peak, e.BucketCap(), e.Len())
		})
	}
}

// TestEngineCancelFreesAtOnce: a canceled event leaves the queue and its
// arena slot returns to the free list when Cancel returns, not when the
// clock reaches the canceled timestamp.
func TestEngineCancelFreesAtOnce(t *testing.T) {
	e := NewEngine()
	var evs []Event
	for i := 0; i < 8; i++ {
		evs = append(evs, e.Schedule(Time(1+i%3)*Millisecond, func() {}))
	}
	for i, ev := range evs {
		queued, free := e.Len(), e.FreeSlots()
		e.Cancel(ev)
		if e.Len() != queued-1 || e.FreeSlots() != free+1 {
			t.Fatalf("cancel %d: Len %d -> %d, FreeSlots %d -> %d; want one fewer queued and one more free",
				i, queued, e.Len(), free, e.FreeSlots())
		}
		mustHeap(t, e, "Cancel")
	}
	if _, ok := e.peek(); ok {
		t.Error("peek reports an event on a queue whose every event was canceled")
	}
}

// TestEngineArenaBoundedUnderRearm is the armRTO pattern: a set of timers,
// each canceled and re-armed far ahead over and over while the clock barely
// moves. The arena must stay the size of the live set.
func TestEngineArenaBoundedUnderRearm(t *testing.T) {
	e := NewEngine()
	const timers = 16
	var rto [timers]Event
	for i := range rto {
		rto[i] = e.After(2*Millisecond, func() {})
	}
	for round := 0; round < 100_000; round++ {
		i := round % timers
		e.Cancel(rto[i])
		rto[i] = e.After(2*Millisecond, func() {})
		if round%64 == 0 {
			e.RunUntil(e.Now() + Microsecond)
		}
		if e.Len() != timers || e.ArenaSize() > timers+1 {
			t.Fatalf("round %d: Len %d and an arena of %d slots for %d live events", round, e.Len(), e.ArenaSize(), timers)
		}
	}
	mustHeap(t, e, "re-arm rounds")
}

// TestEngineScheduleBelowNextAfterDeadline: RunUntil looks at the event past
// its deadline to know it is done. Looking must not commit the queue to
// that time, because the caller may now schedule before it.
func TestEngineScheduleBelowNextAfterDeadline(t *testing.T) {
	for _, stop := range []string{"RunUntil", "RunChunk+AdvanceTo", "peek"} {
		e := NewEngine()
		var got []Time
		note := func() { got = append(got, e.Now()) }
		e.Schedule(10, note)
		e.Schedule(1<<20+5, note)
		switch stop {
		case "RunUntil":
			e.RunUntil(500)
		case "RunChunk+AdvanceTo":
			for e.RunChunk(500, 1) {
			}
			e.AdvanceTo(500)
		case "peek":
			e.Step()
			if at, ok := e.peek(); !ok || at != 1<<20+5 {
				t.Fatalf("%s: peek = %v, %v", stop, at, ok)
			}
			e.AdvanceTo(500)
		}
		mustHeap(t, e, stop)
		e.Schedule(1<<20+5, note) // equal to next: fires after it
		e.Schedule(1<<20, note)
		e.Schedule(600, note)
		e.Schedule(500, note) // exactly now
		mustHeap(t, e, "schedule below next")
		e.Run()
		want := []Time{10, 500, 600, 1 << 20, 1<<20 + 5, 1<<20 + 5}
		if !slices.Equal(got, want) {
			t.Errorf("%s: fired at %v, want %v", stop, got, want)
		}
	}
}

// TestShardedHandoffBelowNextLocalEvent is the same trap at a window
// boundary: the destination peeks its engine at the end of a window, and
// its drain at the start of the next injects a message that arrives before
// its next local event.
func TestShardedHandoffBelowNextLocalEvent(t *testing.T) {
	const lookahead = 1000
	se := NewShardedEngine(2, lookahead, 1)
	src, dst := se.Domain(0), se.Domain(1)
	var got []Time
	h := se.NewHandoff(dst, func(any) { got = append(got, dst.Now()) })
	dst.Schedule(50, func() { got = append(got, dst.Now()) })
	dst.Schedule(1<<22, func() { got = append(got, dst.Now()) }) // far local event
	src.Schedule(100, func() {
		h.Send(src.Now()+lookahead, nil)
		h.Send(src.Now()+3*lookahead, nil)
	})
	se.Run()
	want := []Time{50, 1100, 3100, 1 << 22}
	if !slices.Equal(got, want) {
		t.Errorf("destination fired at %v, want %v", got, want)
	}
	mustHeap(t, dst, "sharded run")
}

// TestEngineCancelInsideBucketZero cancels entries of the bucket that is
// being drained: one in the middle, then the head next to it (so head has
// to step over both), then the tail, from outside and from a callback.
func TestEngineCancelInsideBucketZero(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs [8]Event
	for i := range evs {
		i := i
		evs[i] = e.Schedule(1000, func() {
			got = append(got, i)
			if i == 4 {
				e.Cancel(evs[5]) // the head-to-be, from a callback
				mustHeap(t, e, "cancel of the next entry from a callback")
			}
		})
	}
	e.Step() // fires 0 and leaves 1..7 in bucket 0
	e.Cancel(evs[2])
	mustHeap(t, e, "cancel of a middle entry")
	e.Cancel(evs[1]) // the head: must skip the tombstone of 2 as well
	mustHeap(t, e, "cancel of the head")
	e.Cancel(evs[7])
	mustHeap(t, e, "cancel of the tail")
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
	late := e.Schedule(1000, func() { got = append(got, 8) }) // appended behind the tail's tombstone
	mustHeap(t, e, "schedule at the time being drained")
	e.Run()
	if want := []int{0, 3, 4, 6, 8}; !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
	if e.Pending(late) || e.Len() != 0 || e.FreeSlots() != e.ArenaSize() {
		t.Errorf("after drain: Len %d, %d of %d slots free", e.Len(), e.FreeSlots(), e.ArenaSize())
	}
}

// TestEngineSameTimeBurst: 200 k events at one non-zero time, every third
// canceled (which scrambles the bucket), must fire in scheduling order and
// finish quickly — the refill that orders them must not be quadratic.
func TestEngineSameTimeBurst(t *testing.T) {
	start := time.Now()
	const n = 200_000
	e := NewEngine()
	next := 0
	evs := make([]Event, n)
	for i := range evs {
		i := i
		evs[i] = e.Schedule(7*Millisecond, func() {
			if i < next {
				t.Fatalf("event %d fired after event %d", i, next-1)
			}
			next = i + 1
		})
	}
	canceled := 0
	for i := 0; i < n; i += 3 {
		e.Cancel(evs[i])
		canceled++
	}
	mustHeap(t, e, "cancels")
	e.Step()
	mustHeap(t, e, "first refill")
	// Cancel inside the ordered bucket too, then drain.
	for i := n - 1; i > n/2; i -= 3 {
		e.Cancel(evs[i])
		canceled++
	}
	mustHeap(t, e, "cancels inside bucket 0")
	e.Run()
	if want := uint64(n - canceled); e.Processed != want || e.Len() != 0 {
		t.Errorf("processed %d, want %d; Len %d", e.Processed, want, e.Len())
	}
	// 0.13 s here, 0.7 s under -race; a quadratic refill takes minutes.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("burst took %v; it takes well under 2 s unless the refill went quadratic", d)
	}
}

// TestEngineTimesAcrossBitBoundaries schedules around the powers of two
// where an event changes radix bucket, up to the end of representable time,
// in random order.
func TestEngineTimesAcrossBitBoundaries(t *testing.T) {
	var times []Time
	for _, b := range []Time{1 << 20, 1 << 32, 1 << 40, MaxTime - 1} {
		for d := Time(-2); d <= 2; d++ {
			if d <= MaxTime-b {
				times = append(times, b+d, b+d) // twice: equal times keep scheduling order
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
		e := NewEngine()
		type firing struct {
			at  Time
			seq int
		}
		var got, want []firing
		for i, at := range times {
			f := firing{at, i}
			want = append(want, f)
			e.Schedule(at, func() {
				if e.Now() != f.at {
					t.Fatalf("event for %v fired at %v", f.at, e.Now())
				}
				got = append(got, f)
			})
			mustHeap(t, e, "schedule")
		}
		slices.SortFunc(want, func(a, b firing) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		for e.Step() {
			mustHeap(t, e, "step")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: fired %v, want %v", round, got, want)
		}
	}
}

// TestEngineCallbackCancelsOwnHandle: by the time a callback runs its slot
// has been recycled, possibly for the event the callback just scheduled;
// canceling its own stale handle must not touch that tenant.
func TestEngineCallbackCancelsOwnHandle(t *testing.T) {
	e := NewEngine()
	var self, child Event
	childFired := false
	self = e.Schedule(10, func() {
		child = e.After(5, func() { childFired = true })
		e.Cancel(self)
		if !e.Pending(child) {
			t.Error("canceling a fired handle canceled the event that reused its slot")
		}
		if e.Len() != 1 {
			t.Errorf("Len = %d inside the callback, want 1", e.Len())
		}
	})
	e.Run()
	if !childFired {
		t.Error("child did not fire")
	}
	mustHeap(t, e, "run")
}
