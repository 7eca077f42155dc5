package packet

import (
	"errors"
	"unsafe"
)

// errPutLinked is a value, so Put's check converts nothing to an interface.
var errPutLinked = errors.New("packet: Put of a packet still on a link or in a queue")

// Pool recycles Packets through a LIFO free list. Simulations forward
// millions of packets whose lifetime is short and strictly nested inside
// the run, so recycling them removes the dominant allocation (and GC) cost
// of the hot path — see DESIGN.md "Hot path & memory discipline".
//
// A Pool is two parts: the handle, which counts what its holder got and
// put, and the free list behind it. A pool owns a list until Share points
// it at another pool's, so several handles can draw from and release to
// one list while each keeps its own counters (topology gives every domain
// a handle and every worker group a list).
//
// Hygiene rules:
//
//   - Put zeroes every field before the packet is recycled, so a reused
//     packet can never leak ECN codepoints, timestamps or payload state
//     from a previous life. Determinism therefore does not depend on
//     pooling, nor on which list a packet came from: runs with and without
//     a pool are byte-identical.
//   - Ownership transfers with the pointer. Whoever terminates a packet's
//     journey (the destination host, or the queue that tail-drops it)
//     returns it; nothing may touch a packet after putting it back.
//   - Put panics on double-Put, through any handle of the list: returning
//     the same packet twice would hand one pointer to two owners and
//     corrupt the simulation silently. It panics likewise on a packet whose
//     Next is set: that packet is still on a link, and the pending delivery
//     event owns it, or it is in a queue.
//
// A nil *Pool is valid and disables recycling: Get falls back to the heap
// allocator and Put is a no-op, so pooling can be toggled per simulation
// without touching call sites. Neither a Pool nor a list is safe for
// concurrent use: the handles sharing a list must never run at the same
// time.
//
// A Pool is 64 bytes on every GOARCH: four words (list and own's slice
// header), three counters and padding. Allocated on its own, as topology
// allocates each domain's, it fills one cache line, so the handles of
// domains run by different workers share no line.
type Pool struct {
	// list is the free list Get and Put use: &own, or the list of the pool
	// given to Share. Nil until the first Put or Share.
	list *freeList
	own  freeList

	// Counters for observability and tests.
	Gets int64 // packets handed out (recycled + fresh)
	News int64 // packets freshly allocated because the free list was empty
	Puts int64 // packets returned

	_ [64 - 4*unsafe.Sizeof(uintptr(0)) - 3*8]byte
}

// freeList is the LIFO list of released packets behind one or more Pools.
type freeList struct {
	free []*Packet
}

// Share makes pl draw from and release to o's free list from now on; pl's
// counters stay its own. Call it before pl is used: packets already on
// pl's own list stay there.
func (pl *Pool) Share(o *Pool) { pl.list = o.freeList() }

// freeList returns the list pl uses, taking its own on first use.
func (pl *Pool) freeList() *freeList {
	if pl.list == nil {
		pl.list = &pl.own
	}
	return pl.list
}

// Get returns a zeroed packet, recycling a returned one when available.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.Gets++
	if l := pl.list; l != nil {
		if n := len(l.free); n > 0 {
			p := l.free[n-1]
			l.free[n-1] = nil
			l.free = l.free[:n-1]
			p.pooled = false
			return p
		}
	}
	pl.News++
	return &Packet{}
}

// Put zeroes p and returns it to the free list. Putting nil is a no-op;
// putting the same packet twice, or one that is still on a link or in a
// queue (Next set), panics: both indicate an ownership bug. With a nil
// receiver the packet is simply left to the garbage collector.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic("packet: Put of a packet already in the pool")
	}
	if p.Next != nil {
		panic(errPutLinked)
	}
	*p = Packet{pooled: true}
	pl.Puts++
	l := pl.freeList()
	l.free = append(l.free, p)
}

// Free returns the length of the free list pl uses, which the pools
// sharing it have in common.
func (pl *Pool) Free() int {
	if pl == nil || pl.list == nil {
		return 0
	}
	return len(pl.list.free)
}
