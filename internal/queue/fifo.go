// Package queue implements egress-port queueing: packet FIFOs, the DWRR
// packet scheduler used by the Figure 13 experiment, and the Egress, a
// port's queue and its AQM marking under the Settings its switch shares
// (a DWRR port's queues, each with its AQM). Switches and host NICs drain
// an Egress at link rate. A FIFO
// links its packets through their own Packet.Next, so it is four words
// whatever it holds.
package queue

import (
	"errors"

	"ecnsharp/internal/packet"
)

// errPushLinked is a value, so Push's check converts nothing to an interface.
var errPushLinked = errors.New("queue: Push of a packet still on a link or in a queue (Next set)")

// queued is a packet as the Next of the one ahead of it in a FIFO: a queued
// packet's Next is otherwise nil (delivery clears it), so it holds the link.
type queued packet.Packet

// end is the Next of every queue's tail: a packet is queued exactly when its
// Next is set, the tail included, so Push and packet.Pool.Put refuse it.
var end queued

// Receive implements packet.Sink only so that a link fits in Next: a queued
// packet is never a next hop.
func (*queued) Receive(*packet.Packet) { panic("queue: delivery to a queued packet") }

// FIFO is a byte-accounted packet queue linked from head to tail through the
// packets' Next fields; the tail's is end. The zero FIFO is empty.
type FIFO struct {
	head, tail *packet.Packet
	count      int
	bytes      int64
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.count }

// Bytes returns the queued bytes.
func (f *FIFO) Bytes() int64 { return f.bytes }

// Empty reports whether the queue holds no packets.
func (f *FIFO) Empty() bool { return f.count == 0 }

// Push appends p to the tail. It panics if p's Next is set.
func (f *FIFO) Push(p *packet.Packet) {
	if p.Next != nil {
		panic(errPushLinked)
	}
	if f.tail == nil {
		f.head = p
	} else {
		f.tail.Next = (*queued)(p)
	}
	p.Next = &end
	f.tail = p
	f.count++
	f.bytes += int64(p.Size())
}

// Pop removes and returns the head packet with its Next cleared, or nil if
// empty.
func (f *FIFO) Pop() *packet.Packet {
	p := f.head
	if p == nil {
		return nil
	}
	if next := p.Next.(*queued); next == &end {
		f.head, f.tail = nil, nil
	} else {
		f.head = (*packet.Packet)(next)
	}
	p.Next = nil
	f.count--
	f.bytes -= int64(p.Size())
	return p
}

// Peek returns the head packet without removing it, or nil if empty.
func (f *FIFO) Peek() *packet.Packet { return f.head }
