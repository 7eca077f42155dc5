package device

import "unsafe"

// Demux maps a (host, flow) pair to the flow's PacketHandler for every host
// of one domain: a host carries a pointer to its domain's table instead of
// slots of its own, which most hosts of a large fabric never fill.
//
// The table is open addressing with linear probing over a power-of-two
// array of keys, with the handlers in a parallel array, so a probe reads
// keys only. A deletion shifts the entries that follow back instead of
// leaving a tombstone. The table doubles past two-thirds load, shrinks to a
// quarter of its slots when the live count falls below an eighth, and
// releases both arrays when it empties, so a finished run holds no table
// storage. It is never iterated, so nothing can depend on its order.
//
// A domain's Demux is touched only by that domain's engine, or by the
// coordinator while it builds and tears a run down. The header is padded to
// a 64-byte line, and an array holds at least demuxMinSlots entries (512
// bytes of keys), which the allocator places on lines of its own: two
// domains' tables share no cache line.
type Demux struct {
	demuxTable
	_ [demuxPad]byte
}

type demuxTable struct {
	// keys[i] is demuxKey(host, flow), or 0 for an empty slot.
	keys []uint64
	// handlers[i] serves keys[i].
	handlers []PacketHandler
	// n counts the live entries.
	n int
}

// demuxPad rounds a Demux up to a 64-byte line.
const demuxPad = (64 - unsafe.Sizeof(demuxTable{})%64) % 64

// demuxMinSlots is the smallest table: 512 bytes of keys.
const demuxMinSlots = 64

// demuxLive tags a key as occupied, so that the zero key marks an empty
// slot: host ids are below 2^31, so the tag bit is never part of one.
const demuxLive = 1 << 63

// demuxKey is the key of flowID on host id.
func demuxKey(id int, flowID uint32) uint64 {
	return demuxLive | uint64(id)<<32 | uint64(flowID)
}

// demuxHash mixes a key for its home slot, hash & (slots-1). Folding the
// host into the flow bits first breaks up keys that grow linearly with
// the host id (host k with flow 4k, say), which a bare multiplicative hash
// piles into long probe runs; the Fibonacci multiply then makes the middle
// bits depend on all the low ones.
func demuxHash(key uint64) uint64 { return (key ^ key>>32) * 0x9e3779b97f4a7c15 >> 32 }

// lookup returns the handler registered under key, or nil. On an empty
// table the first probe is already out of range.
func (d *Demux) lookup(key uint64) PacketHandler {
	keys := d.keys
	mask := uint64(len(keys) - 1)
	for i := demuxHash(key) & mask; i < uint64(len(keys)); i = (i + 1) & mask {
		switch keys[i] {
		case key:
			return d.handlers[i]
		case 0:
			return nil
		}
	}
	return nil
}

// insert registers ph under key, which must be absent, growing the table
// past two-thirds load. (At half load, a 10k-tier leaf's 320 entries would
// take 1 024 slots, 24 KB, as much as its host blocks gave up, and the run's
// peak heap would grow with it.)
func (d *Demux) insert(key uint64, ph PacketHandler) {
	if 3*(d.n+1) > 2*len(d.keys) {
		d.resize(max(demuxMinSlots, 2*len(d.keys)))
	}
	d.place(key, ph)
	d.n++
}

// remove unregisters key, if registered: every entry after it in the probe
// run that may move back does, so the run stays unbroken. Below an eighth
// full the table shrinks to a quarter of its slots: a table emptied flow by
// flow, as a run's teardown does, then reallocates half as often as one that
// halves. Empty, it lets go of its arrays.
func (d *Demux) remove(key uint64) {
	keys := d.keys
	if len(keys) == 0 {
		return
	}
	mask := uint64(len(keys) - 1)
	i := demuxHash(key) & mask
	for keys[i] != key {
		if keys[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; keys[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// after i, cyclically, on the way to j.
		if (j-demuxHash(keys[j]))&mask >= (j-i)&mask {
			keys[i], d.handlers[i] = keys[j], d.handlers[j]
			i = j
		}
	}
	keys[i], d.handlers[i] = 0, nil
	d.n--
	switch {
	case d.n == 0:
		d.resize(0)
	case len(keys) > demuxMinSlots && 8*d.n < len(keys):
		d.resize(max(demuxMinSlots, len(keys)/4))
	}
}

// Release lets go of both arrays and every handler in them at once, at a
// run's teardown; unregistering from the emptied table does nothing.
func (d *Demux) Release() {
	d.n = 0
	d.resize(0)
}

// resize moves every entry into a table of slots slots, a power of two, or
// drops both arrays for slots 0.
func (d *Demux) resize(slots int) {
	keys, handlers := d.keys, d.handlers
	if slots == 0 {
		d.keys, d.handlers = nil, nil
		return
	}
	d.keys, d.handlers = make([]uint64, slots), make([]PacketHandler, slots)
	for i, k := range keys {
		if k != 0 {
			d.place(k, handlers[i])
		}
	}
}

// place puts key, known to be absent, in the first free slot of its run.
func (d *Demux) place(key uint64, ph PacketHandler) {
	mask := uint64(len(d.keys) - 1)
	i := demuxHash(key) & mask
	for d.keys[i] != 0 {
		i = (i + 1) & mask
	}
	d.keys[i], d.handlers[i] = key, ph
}
