// Package queue implements egress-port queueing: packet FIFOs, the DWRR
// packet scheduler used by the Figure 13 experiment, and the Egress
// abstraction that stitches queues, a scheduler and per-queue AQM marking
// together. Switches and host NICs drain an Egress at link rate.
package queue

import "ecnsharp/internal/packet"

// fifoInline is the capacity of the ring a FIFO carries inside itself.
const fifoInline = 16

// FIFO is a byte-accounted packet queue backed by a growable ring buffer.
// The ring starts inside the FIFO (buf points at ring), so a queue that
// never holds more than fifoInline packets touches no second object; grow
// leaves it for the heap. The ring's length is a power of two, so a
// position wraps by mask. A FIFO must not be copied after Init.
type FIFO struct {
	buf   []*packet.Packet
	head  uint32
	count uint32
	bytes int64
	ring  [fifoInline]*packet.Packet
}

// Init makes f, wherever it lives, an empty FIFO.
func (f *FIFO) Init() {
	*f = FIFO{}
	f.buf = f.ring[:]
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return int(f.count) }

// Bytes returns the queued bytes.
func (f *FIFO) Bytes() int64 { return f.bytes }

// Empty reports whether the queue holds no packets.
func (f *FIFO) Empty() bool { return f.count == 0 }

// Push appends p to the tail.
func (f *FIFO) Push(p *packet.Packet) {
	if int(f.count) == len(f.buf) {
		f.grow()
	}
	f.buf[f.at(f.count)] = p
	f.count++
	f.bytes += int64(p.Size())
}

// Pop removes and returns the head packet, or nil if empty.
func (f *FIFO) Pop() *packet.Packet {
	if f.count == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = f.at(1)
	f.count--
	f.bytes -= int64(p.Size())
	return p
}

// Peek returns the head packet without removing it, or nil if empty.
func (f *FIFO) Peek() *packet.Packet {
	if f.count == 0 {
		return nil
	}
	return f.buf[f.head]
}

// at returns the ring index i places past the head.
func (f *FIFO) at(i uint32) uint32 { return (f.head + i) & uint32(len(f.buf)-1) }

func (f *FIFO) grow() {
	next := make([]*packet.Packet, 2*len(f.buf))
	for i := uint32(0); i < f.count; i++ {
		next[i] = f.buf[f.at(i)]
	}
	f.buf = next
	f.head = 0
}
