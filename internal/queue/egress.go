package queue

import (
	"fmt"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// Egress is one output port's buffering: a set of service queues sharing a
// byte buffer, a packet scheduler arbitrating between them, and one AQM
// instance per queue deciding ECN marks.
//
// Packets whose class exceeds the queue count land in the last queue.
// Buffer exhaustion causes tail drop (Enqueue returns false), which is how
// the incast experiments lose packets under CoDel. CE is only ever set on
// ECN-capable (ECT) packets; a mark decision on a NotECT packet is counted
// but not applied, mirroring switches configured for marking, not dropping.
//
// An Egress holds its service queues by value, and for the single-queue
// port (every port but the DWRR experiment's) the queue and the AQM slot
// lie inside the Egress itself, so an enqueue or dequeue reads one object
// plus the AQM and the packets. Its slices point into itself: build it
// where it will live (Init) and never copy it afterwards. It keeps no
// counters of its own: it counts into a Tally, which a topology shares
// among a domain's ports of one role.
type Egress struct {
	queues []FIFO
	aqms   []aqm.AQM
	sched  Scheduler

	// BufferBytes caps total queued bytes across all service queues;
	// zero or negative means unbounded. Ignored when Pool is set.
	BufferBytes int64

	// Pool, when non-nil, switches admission to a shared buffer with
	// dynamic thresholds: this port's total backlog plays the role of the
	// DT "queue length".
	Pool *SharedPool

	// PacketPool, when non-nil, receives tail-dropped packets for reuse:
	// a drop terminates the packet's journey, so the egress owns its
	// release. Enqueue's false return then means the packet has already
	// been recycled and the caller must not touch it again. A nil pool
	// leaves dropped packets to the garbage collector.
	PacketPool *packet.Pool

	bytes int64

	// Tracing. tracer is nil unless attached via SetTracer, so untraced
	// runs pay one nil check per enqueue/dequeue.
	tracer trace.Tracer
	port   int

	// Tally receives what the egress counts, and what the port draining it
	// loses to its fault logic.
	Tally *Tally

	// Backing arrays of queues and aqms on a single-queue port.
	queue0 [1]FIFO
	aqm0   [1]aqm.AQM
}

// Tally counts what a set of egress ports did: the packets their queues
// dropped and marked, and the packets their ports' fault logic lost outside
// the queues. A topology keeps one per domain and port role, so that a port
// carries one pointer instead of the counters; what is only ever summed
// needs no per-port copy.
type Tally struct {
	Drops     int64
	DropBytes int64
	EnqMarks  int64
	DeqMarks  int64
	// MarkKinds counts the applied marks by the condition that decided
	// them (indexed by trace.MarkKind): they sum to EnqMarks + DeqMarks.
	MarkKinds [trace.MarkProbabilistic + 1]int64
	// FaultDrops and FaultDropBytes count packets a port's fault logic
	// discarded outside the egress accounting (device.Port counts them):
	// the packet on the transmitter when the link went down, and packets
	// arriving at a downed port. Queued packets drained on link-down are
	// Drops like any tail drop.
	FaultDrops     int64
	FaultDropBytes int64
}

// NewEgress builds an egress port with n service queues, counting into a
// Tally of its own. aqmFor is called once per queue index to build its AQM
// (pass nil for no marking).
func NewEgress(n int, sched Scheduler, bufferBytes int64, aqmFor func(i int) aqm.AQM) *Egress {
	e := new(Egress)
	e.Init(n, sched, bufferBytes, aqmFor, new(Tally))
	return e
}

// Init builds the egress in place, with NewEgress's arguments, counting
// into t: callers that lay ports out in blocks (internal/topology) embed an
// Egress and Init it there, over the tally its domain keeps for the port's
// role.
func (e *Egress) Init(n int, sched Scheduler, bufferBytes int64, aqmFor func(i int) aqm.AQM, t *Tally) {
	if n <= 0 {
		panic("queue: egress needs at least one queue")
	}
	if sched == nil {
		sched = FIFOSched{}
	}
	*e = Egress{sched: sched, BufferBytes: bufferBytes, port: -1, Tally: t}
	if n == 1 {
		e.queues, e.aqms = e.queue0[:], e.aqm0[:]
	} else {
		e.queues = make([]FIFO, n)
		e.aqms = make([]aqm.AQM, n)
	}
	for i := range e.queues {
		if aqmFor != nil {
			e.aqms[i] = aqmFor(i)
		}
		if e.aqms[i] == nil {
			e.aqms[i] = aqm.Nop{}
		}
	}
}

// SetTracer attaches t as this port's event observer; port is the id
// reported in every emitted event (topology.Net.AttachTracer numbers
// switch ports by their SwitchPorts index). A nil t detaches and restores
// the zero-cost path.
func (e *Egress) SetTracer(t trace.Tracer, port int) {
	e.tracer = t
	e.port = port
}

// TracePort returns the port id assigned at SetTracer time (-1 when no
// tracer was ever attached); samplers use it to label their own events
// consistently with the queue's.
func (e *Egress) TracePort() int { return e.port }

// HeadAge returns the sojourn time, as of now, of the oldest head-of-line
// packet across the service queues (zero when all queues are idle). It is
// the instantaneous queueing-delay signal a SojournSample event carries.
func (e *Egress) HeadAge(now sim.Time) sim.Time {
	var oldest sim.Time
	for i := range e.queues {
		if p := e.queues[i].Peek(); p != nil {
			if age := p.SojournTime(now); age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

// emit builds and delivers one queue-layer event. Callers must have checked
// e.tracer != nil so that untraced runs never reach the event construction.
func (e *Egress) emit(typ trace.Type, kind trace.MarkKind, now sim.Time, qi int, p *packet.Packet, sojourn sim.Time) {
	var seq int64 // an ACK's Seq is its acknowledgement, not a payload offset
	if p.Kind == packet.Data {
		seq = p.Seq
	}
	e.tracer.Trace(trace.Event{
		Type:         typ,
		Mark:         kind,
		At:           int64(now),
		Port:         e.port,
		Queue:        qi,
		FlowID:       uint64(p.FlowID),
		Src:          int(p.Src),
		Dst:          int(p.Dst),
		Seq:          seq,
		Size:         int64(p.Size()),
		Dur:          int64(sojourn),
		QueuePackets: e.Len(),
		QueueBytes:   e.bytes,
	})
}

// drop counts and traces a tail drop or a DropAll, then recycles the packet:
// the drop ends its journey, so the egress is its final owner.
func (e *Egress) drop(now sim.Time, p *packet.Packet) {
	e.Tally.Drops++
	e.Tally.DropBytes += int64(p.Size())
	if e.tracer != nil {
		e.emit(trace.Drop, trace.MarkUnknown, now, e.classQueue(p), p, 0)
	}
	e.PacketPool.Put(p)
}

// DropAll discards every queued packet — the link-down fault path: each
// packet is counted and traced as a drop and released exactly like a tail
// drop, and the scheduler is told each queue emptied so service restarts
// cleanly when the link returns. It returns the number of packets lost.
func (e *Egress) DropAll(now sim.Time) int {
	n := 0
	for qi := range e.queues {
		q := &e.queues[qi]
		for p := q.Pop(); p != nil; p = q.Pop() {
			e.bytes -= int64(p.Size())
			if e.Pool != nil {
				e.Pool.release(p.Size())
			}
			e.drop(now, p) // p sat in queue qi = classQueue(p)
			n++
		}
		e.sched.Consumed(qi, 0, true)
	}
	return n
}

// mark counts a mark queue qi's AQM decided and returns its kind, asked of
// the AQM.
func (e *Egress) mark(qi int) trace.MarkKind {
	kind := trace.MarkUnknown
	if k, ok := e.aqms[qi].(aqm.MarkKinder); ok {
		kind = k.LastMarkKind()
	}
	e.Tally.MarkKinds[kind]++
	return kind
}

// NumQueues implements View.
func (e *Egress) NumQueues() int { return len(e.queues) }

// QueueEmpty implements View.
func (e *Egress) QueueEmpty(i int) bool { return e.queues[i].Empty() }

// HeadSize implements View.
func (e *Egress) HeadSize(i int) int {
	p := e.queues[i].Peek()
	if p == nil {
		return 0
	}
	return p.Size()
}

// Bytes returns the total queued bytes across all service queues.
func (e *Egress) Bytes() int64 { return e.bytes }

// Len returns the total queued packets across all service queues.
func (e *Egress) Len() int {
	n := 0
	for i := range e.queues {
		n += e.queues[i].Len()
	}
	return n
}

// Empty reports whether all service queues are empty.
func (e *Egress) Empty() bool { return e.bytes == 0 && e.Len() == 0 }

// classQueue maps a packet class to a queue index: a class beyond the
// last queue joins the last.
func (e *Egress) classQueue(p *packet.Packet) int {
	return min(int(p.Class), len(e.queues)-1)
}

// Enqueue admits p at time now, applying enqueue-side AQM marking. It
// returns false if the packet was tail-dropped on buffer exhaustion; a
// dropped packet is released to PacketPool (when one is attached) and must
// not be used by the caller afterwards.
func (e *Egress) Enqueue(now sim.Time, p *packet.Packet) bool {
	if e.Pool != nil {
		if !e.Pool.admit(e.bytes, p.Size()) {
			e.drop(now, p)
			return false
		}
	} else if e.BufferBytes > 0 && e.bytes+int64(p.Size()) > e.BufferBytes {
		e.drop(now, p)
		return false
	}
	qi := e.classQueue(p)
	q := &e.queues[qi]
	backlog := aqm.Backlog{Bytes: q.Bytes(), Packets: q.Len()}
	marked := e.aqms[qi].OnEnqueue(now, p, backlog) && p.ECN == packet.ECT
	kind := trace.MarkUnknown
	if marked {
		p.ECN = packet.CE
		e.Tally.EnqMarks++
		kind = e.mark(qi)
	}
	p.EnqueuedAt = now
	q.Push(p)
	e.bytes += int64(p.Size())
	if e.tracer != nil {
		e.emit(trace.Enqueue, trace.MarkUnknown, now, qi, p, 0)
		if marked {
			e.emit(trace.ECNMark, kind, now, qi, p, 0)
		}
	}
	return true
}

// Dequeue removes the next packet per the scheduler, applying dequeue-side
// AQM marking based on its sojourn time. It returns nil when empty.
func (e *Egress) Dequeue(now sim.Time) *packet.Packet {
	qi := e.sched.Next(e)
	if qi < 0 {
		return nil
	}
	q := &e.queues[qi]
	p := q.Pop()
	if p == nil {
		panic(fmt.Sprintf("queue: scheduler picked empty queue %d", qi))
	}
	e.bytes -= int64(p.Size())
	if e.Pool != nil {
		e.Pool.release(p.Size())
	}
	e.sched.Consumed(qi, p.Size(), q.Empty())
	sojourn := p.SojournTime(now)
	if sojourn < 0 {
		panic("queue: negative sojourn time")
	}
	marked := e.aqms[qi].OnDequeue(now, p, sojourn) && p.ECN == packet.ECT
	kind := trace.MarkUnknown
	if marked {
		p.ECN = packet.CE
		e.Tally.DeqMarks++
		kind = e.mark(qi)
	}
	if e.tracer != nil {
		e.emit(trace.Dequeue, trace.MarkUnknown, now, qi, p, sojourn)
		if marked {
			e.emit(trace.ECNMark, kind, now, qi, p, sojourn)
		}
	}
	return p
}
