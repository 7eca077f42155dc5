package packet

// Pool is a LIFO free list of Packets. Simulations forward millions of
// packets whose lifetime is short and strictly nested inside the run, so
// recycling them removes the dominant allocation (and GC) cost of the hot
// path — see DESIGN.md "Hot path & memory discipline".
//
// Hygiene rules:
//
//   - Put zeroes every field before the packet is recycled, so a reused
//     packet can never leak ECN codepoints, timestamps or payload state
//     from a previous life. Determinism therefore does not depend on
//     pooling: runs with and without a pool are byte-identical.
//   - Ownership transfers with the pointer. Whoever terminates a packet's
//     journey (the destination host, or the queue that tail-drops it)
//     returns it; nothing may touch a packet after putting it back.
//   - Put panics on double-Put: returning the same packet twice would hand
//     one pointer to two owners and corrupt the simulation silently. It
//     panics likewise on a packet whose Next is set: that packet is still
//     on a link, and the pending delivery event owns it.
//
// A nil *Pool is valid and disables recycling: Get falls back to the heap
// allocator and Put is a no-op, so pooling can be toggled per simulation
// without touching call sites. A Pool is not safe for concurrent use; give
// each engine (each parallel experiment job) its own.
type Pool struct {
	free []*Packet

	// Counters for observability and tests.
	Gets int64 // packets handed out (recycled + fresh)
	News int64 // packets freshly allocated because the free list was empty
	Puts int64 // packets returned
}

// Get returns a zeroed packet, recycling a returned one when available.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.Gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.pooled = false
		return p
	}
	pl.News++
	return &Packet{}
}

// Put zeroes p and returns it to the free list. Putting nil is a no-op;
// putting the same packet twice, or one that is still on a link (Next
// set), panics: both indicate an ownership bug. With a nil receiver the
// packet is simply left to the garbage collector.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic("packet: Put of a packet already in the pool")
	}
	if p.Next != nil {
		panic("packet: Put of a packet still on a link")
	}
	*p = Packet{pooled: true}
	pl.Puts++
	pl.free = append(pl.free, p)
}

// Free returns the current free-list length (for tests).
func (pl *Pool) Free() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}
