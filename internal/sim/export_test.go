package sim

import (
	"fmt"
	"math/bits"
)

// CheckHeapInvariant verifies the radix heap: every entry sits in the
// bucket its at ^ last selects, bucket 0 is in seq order with a live head,
// the mask equals the occupancy of buckets 1..63, the cached minimum is
// exact when known, every live entry's packed slot and its slot's packed
// position reference each other, no live entry's slot is on the free list,
// and the live count equals Len. Tests call it between operations to catch
// bookkeeping bugs that firing order alone might mask.
func (e *Engine) CheckHeapInvariant() error {
	if e.last > e.now {
		return fmt.Errorf("last %v is ahead of now %v", e.last, e.now)
	}
	free, nfree := make([]bool, len(e.slots)), 0
	for s := e.free; s != freeEnd; s = e.slots[s].pos {
		if s >= uint32(len(e.slots)) || free[s] {
			return fmt.Errorf("free list reaches slot %d (arena of %d) twice or outside the arena", s, len(e.slots))
		}
		free[s] = true
		nfree++
	}
	live := 0
	lowest := MaxTime
	var mask uint64
	for b := range e.buckets {
		q := e.buckets[b]
		if b > 0 && len(q) > 0 {
			mask |= 1 << b
		}
		for i, en := range q {
			if en.slot() == tombstone {
				if b != 0 {
					return fmt.Errorf("tombstone at bucket %d index %d, outside bucket 0", b, i)
				}
				continue
			}
			if b == 0 && i < e.head {
				continue // already fired
			}
			live++
			if en.at < e.last {
				return fmt.Errorf("bucket %d entry %d at %v is before last %v", b, i, en.at, e.last)
			}
			if want := bits.Len64(uint64(en.at ^ e.last)); want != b {
				return fmt.Errorf("entry at %v (last %v) is in bucket %d, belongs in %d", en.at, e.last, b, want)
			}
			if b > 0 && en.at < lowest {
				lowest = en.at
			}
			s := en.slot()
			if int(s) >= len(e.slots) {
				return fmt.Errorf("bucket %d entry %d references slot %d outside arena of %d", b, i, s, len(e.slots))
			}
			sl := &e.slots[s]
			if free[s] {
				return fmt.Errorf("bucket %d entry %d references free-listed slot %d", b, i, s)
			}
			if sb, si := unpackPos(sl.pos); sb != b || si != i {
				return fmt.Errorf("slot %d records position (%d, %d), its entry is at (%d, %d)", s, sb, si, b, i)
			}
			if fn, _ := sl.arg.(func()); sl.fn == nil && fn == nil {
				return fmt.Errorf("bucket %d entry %d references slot %d with no callback", b, i, s)
			}
		}
	}
	b0 := e.buckets[0]
	if e.head > len(b0) || (e.head == len(b0) && e.head != 0) {
		return fmt.Errorf("head %d of a bucket 0 holding %d entries", e.head, len(b0))
	}
	if e.head < len(b0) && b0[e.head].slot() == tombstone {
		return fmt.Errorf("head %d of bucket 0 is a tombstone", e.head)
	}
	for i := e.head + 1; i < len(b0); i++ {
		if b0[i].key>>slotBits <= b0[i-1].key>>slotBits {
			return fmt.Errorf("bucket 0 out of seq order at %d: %d after %d", i, b0[i].key>>slotBits, b0[i-1].key>>slotBits)
		}
	}
	if mask != e.mask {
		return fmt.Errorf("mask %#x, occupancy %#x", e.mask, mask)
	}
	if e.minAt >= 0 && e.minAt != lowest {
		return fmt.Errorf("cached minimum %v, buckets 1..63 hold %v", e.minAt, lowest)
	}
	if e.minAt < 0 && mask == 0 {
		return fmt.Errorf("cached minimum unknown with buckets 1..63 empty")
	}
	if live != e.n {
		return fmt.Errorf("%d live entries, Len reports %d", live, e.n)
	}
	if inUse := len(e.slots) - nfree; inUse != live {
		return fmt.Errorf("%d arena slots in use for %d live entries", inUse, live)
	}
	return nil
}

// FreeSlots counts arena slots currently on the free list (for leak tests).
func (e *Engine) FreeSlots() int {
	n := 0
	for s := e.free; s != freeEnd; s = e.slots[s].pos {
		n++
	}
	return n
}

// BucketCap returns the total capacity of the queue's bucket arrays, in
// entries.
func (e *Engine) BucketCap() int {
	n := 0
	for _, q := range e.buckets {
		n += cap(q)
	}
	return n
}

// ArenaSize returns the total number of arena slots ever allocated.
func (e *Engine) ArenaSize() int { return len(e.slots) }

// Seconds constructs a Time from a second count.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending reports whether the handle still references a queued event.
func (e *Engine) Pending(ev Event) bool {
	i := ev.slot - 1
	if i < 0 || int(i) >= len(e.slots) {
		return false
	}
	return e.slots[i].gen == ev.gen
}
