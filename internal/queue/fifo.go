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
// leaves it for the heap. A FIFO must not be copied after Init.
type FIFO struct {
	buf   []*packet.Packet
	head  int
	count int
	bytes int64
	ring  [fifoInline]*packet.Packet
}

// NewFIFO returns an empty FIFO.
func NewFIFO() *FIFO {
	f := new(FIFO)
	f.Init()
	return f
}

// Init makes f, wherever it lives, an empty FIFO.
func (f *FIFO) Init() {
	*f = FIFO{}
	f.buf = f.ring[:]
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.count }

// Bytes returns the queued bytes.
func (f *FIFO) Bytes() int64 { return f.bytes }

// Empty reports whether the queue holds no packets.
func (f *FIFO) Empty() bool { return f.count == 0 }

// Push appends p to the tail.
func (f *FIFO) Push(p *packet.Packet) {
	if f.count == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.count)%len(f.buf)] = p
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
	f.head = (f.head + 1) % len(f.buf)
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

func (f *FIFO) grow() {
	next := make([]*packet.Packet, 2*len(f.buf))
	for i := 0; i < f.count; i++ {
		next[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	f.buf = next
	f.head = 0
}
