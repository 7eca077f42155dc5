package queue

import (
	"ecnsharp/internal/aqm"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// Egress is one output port's buffering: its service queue and the AQM
// deciding that queue's ECN marks, under settings it shares with the other
// ports of its switch. A port built with weights has one queue per weight
// instead, served by DWRR, each with an AQM of its own.
//
// Packets whose class exceeds the queue count land in the last queue.
// Buffer exhaustion causes tail drop (Enqueue returns false), which is how
// the incast experiments lose packets under CoDel. CE is only ever set on
// ECN-capable (ECT) packets; a mark decision on a NotECT packet is counted
// but not applied, mirroring switches configured for marking, not dropping.
//
// Every port but Figure 13's has one queue, so an Egress holds only that
// port's state: its FIFO and AQM inline, a pointer to the Settings its
// switch shares, its trace port id, and a pointer to the further queues,
// nil unless it was built with weights. An enqueue or dequeue on a
// single-queue port reads the Egress, its switch's Settings, the AQM and
// the packets, and consults no scheduler.
type Egress struct {
	// fifo and aqm are arrays so that they slice like a port's classes.
	fifo [1]FIFO
	aqm  [1]aqm.AQM
	set  *Settings
	// classes holds the service queues of a port built with weights; the
	// inline fifo and aqm are then unused.
	classes *classes
	port    int
}

// classes is the service queues of a port with weights, and their
// scheduler.
type classes struct {
	fifos []FIFO
	aqms  []aqm.AQM
	sched dwrr
}

// Settings is what the egresses of one switch share, or the NICs of one
// domain: each port holds one pointer to them instead of four words that
// are the same on all of its siblings, as the paper's Tofino program holds
// its configuration once and one register slot per port.
type Settings struct {
	// BufferBytes caps each port's total queued bytes; zero or negative
	// means unbounded. Ignored when Pool is set.
	BufferBytes int64

	// Pool, when non-nil, switches admission to a shared buffer with
	// dynamic thresholds: a port's total backlog plays the role of the DT
	// "queue length".
	Pool *SharedPool

	// PacketPool, when non-nil, receives tail-dropped packets for reuse:
	// a drop terminates the packet's journey, so the egress owns its
	// release. Enqueue's false return then means the packet has already
	// been recycled and the caller must not touch it again. A nil pool
	// leaves dropped packets to the garbage collector.
	PacketPool *packet.Pool

	// Tally receives what the egresses count, and what the ports draining
	// them lose to their fault logic.
	Tally *Tally

	// tracer is nil unless attached via SetTracer, so untraced runs pay
	// one nil check per enqueue/dequeue.
	tracer trace.Tracer
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

// NewEgress builds an egress port under settings of its own: a tally of
// its own, bufferBytes, and no pools. weights nil gives one queue;
// otherwise the port has len(weights) queues under DWRR with those
// weights. aqmFor is called once per queue index to build its AQM (pass nil
// for no marking).
func NewEgress(weights []int, bufferBytes int64, aqmFor func(i int) aqm.AQM) *Egress {
	e := new(Egress)
	e.Init(weights, aqmFor, &Settings{BufferBytes: bufferBytes, Tally: new(Tally)})
	return e
}

// Init builds the egress in place, with NewEgress's queues and AQMs, under
// s: callers that lay ports out in blocks (internal/topology) embed an
// Egress and Init it there, under the settings its switch shares.
func (e *Egress) Init(weights []int, aqmFor func(i int) aqm.AQM, s *Settings) {
	*e = Egress{set: s, port: -1}
	aqmAt := func(i int) aqm.AQM {
		if aqmFor != nil {
			if a := aqmFor(i); a != nil {
				return a
			}
		}
		return aqm.Nop{}
	}
	if weights == nil {
		e.aqm[0] = aqmAt(0)
		return
	}
	c := &classes{sched: newDWRR(weights), fifos: make([]FIFO, len(weights)), aqms: make([]aqm.AQM, len(weights))}
	for i := range c.aqms {
		c.aqms[i] = aqmAt(i)
	}
	e.classes = c
}

// Settings returns the settings the egress shares.
func (e *Egress) Settings() *Settings { return e.set }

// SetTracer attaches t as the event observer of every egress sharing this
// one's Settings (a switch's ports all trace into their domain's tracer);
// port is the id this egress reports in every event it emits
// (topology.Net.AttachTracer numbers switch ports by their SwitchPorts
// index). A nil t detaches and restores the zero-cost path.
func (e *Egress) SetTracer(t trace.Tracer, port int) {
	e.set.tracer = t
	e.port = port
}

// TracePort returns the port id assigned at SetTracer time (-1 when no
// tracer was ever attached); samplers use it to label their own events
// consistently with the queue's.
func (e *Egress) TracePort() int { return e.port }

// queues returns the port's service queues and their AQMs.
func (e *Egress) queues() ([]FIFO, []aqm.AQM) {
	if c := e.classes; c != nil {
		return c.fifos, c.aqms
	}
	return e.fifo[:], e.aqm[:]
}

// HeadAge returns the sojourn time, as of now, of the oldest head-of-line
// packet across the service queues (zero when all queues are idle). It is
// the instantaneous queueing-delay signal a SojournSample event carries.
func (e *Egress) HeadAge(now sim.Time) sim.Time {
	var oldest sim.Time
	fifos, _ := e.queues()
	for i := range fifos {
		if p := fifos[i].Peek(); p != nil {
			oldest = max(oldest, p.SojournTime(now))
		}
	}
	return oldest
}

// emit builds and delivers one queue-layer event. Callers must have checked
// e.set.tracer != nil so that untraced runs never reach the event
// construction.
func (e *Egress) emit(typ trace.Type, kind trace.MarkKind, now sim.Time, qi int, p *packet.Packet, sojourn sim.Time) {
	var seq int64 // an ACK's Seq is its acknowledgement, not a payload offset
	if p.Kind == packet.Data {
		seq = p.Seq
	}
	e.set.tracer.Trace(trace.Event{
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
		QueueBytes:   e.Bytes(),
	})
}

// drop counts and traces a tail drop or a DropAll of p from queue qi, then
// recycles the packet: the drop ends its journey, so the egress is its
// final owner.
func (e *Egress) drop(now sim.Time, p *packet.Packet, qi int) {
	s := e.set
	s.Tally.Drops++
	s.Tally.DropBytes += int64(p.Size())
	if s.tracer != nil {
		e.emit(trace.Drop, trace.MarkUnknown, now, qi, p, 0)
	}
	s.PacketPool.Put(p)
}

// DropAll discards every queued packet — the link-down fault path: each
// packet is counted and traced as a drop and released exactly like a tail
// drop, and the scheduler is told each queue emptied so service restarts
// cleanly when the link returns. It returns the number of packets lost.
func (e *Egress) DropAll(now sim.Time) int {
	n := 0
	fifos, _ := e.queues()
	for qi := range fifos {
		q := &fifos[qi]
		for p := q.Pop(); p != nil; p = q.Pop() {
			if e.set.Pool != nil {
				e.set.Pool.release(p.Size())
			}
			e.drop(now, p, qi)
			n++
		}
		if e.classes != nil {
			e.classes.sched.consumed(qi, 0, true)
		}
	}
	return n
}

// mark counts a mark that a decided and returns its kind, asked of a.
func (e *Egress) mark(a aqm.AQM) trace.MarkKind {
	kind := trace.MarkUnknown
	if k, ok := a.(aqm.MarkKinder); ok {
		kind = k.LastMarkKind()
	}
	e.set.Tally.MarkKinds[kind]++
	return kind
}

// NumQueues returns the number of service queues.
func (e *Egress) NumQueues() int {
	fifos, _ := e.queues()
	return len(fifos)
}

// Bytes returns the total queued bytes across all service queues.
func (e *Egress) Bytes() int64 {
	if e.classes == nil {
		return e.fifo[0].bytes
	}
	var n int64
	for i := range e.classes.fifos {
		n += e.classes.fifos[i].bytes
	}
	return n
}

// Len returns the total queued packets across all service queues.
func (e *Egress) Len() int {
	if e.classes == nil {
		return e.fifo[0].count
	}
	n := 0
	for i := range e.classes.fifos {
		n += e.classes.fifos[i].count
	}
	return n
}

// Empty reports whether all service queues are empty.
func (e *Egress) Empty() bool {
	if e.classes == nil {
		return e.fifo[0].count == 0
	}
	return e.Len() == 0
}

// Enqueue admits p at time now, applying enqueue-side AQM marking. It
// returns false if the packet was tail-dropped on buffer exhaustion; a
// dropped packet is released to the settings' PacketPool (when one is
// attached) and must not be used by the caller afterwards.
func (e *Egress) Enqueue(now sim.Time, p *packet.Packet) bool {
	q, a, qi, held := &e.fifo[0], e.aqm[0], 0, e.fifo[0].bytes
	if c := e.classes; c != nil {
		// A class beyond the last queue joins the last.
		qi = min(int(p.Class), len(c.fifos)-1)
		q, a, held = &c.fifos[qi], c.aqms[qi], e.Bytes()
	}
	s := e.set
	if s.Pool != nil {
		if !s.Pool.admit(held, p.Size()) {
			e.drop(now, p, qi)
			return false
		}
	} else if s.BufferBytes > 0 && held+int64(p.Size()) > s.BufferBytes {
		e.drop(now, p, qi)
		return false
	}
	backlog := aqm.Backlog{Bytes: q.Bytes(), Packets: q.Len()}
	marked := a.OnEnqueue(now, p, backlog) && p.ECN == packet.ECT
	kind := trace.MarkUnknown
	if marked {
		p.ECN = packet.CE
		s.Tally.EnqMarks++
		kind = e.mark(a)
	}
	p.EnqueuedAt = now
	q.Push(p)
	if s.tracer != nil {
		e.emit(trace.Enqueue, trace.MarkUnknown, now, qi, p, 0)
		if marked {
			e.emit(trace.ECNMark, kind, now, qi, p, 0)
		}
	}
	return true
}

// Dequeue removes the next packet — the head of the one queue, or of the
// queue DWRR picks — applying dequeue-side AQM marking based on its
// sojourn time. It returns nil when empty.
func (e *Egress) Dequeue(now sim.Time) *packet.Packet {
	q, a, qi := &e.fifo[0], e.aqm[0], 0
	c := e.classes
	if c != nil {
		if qi = c.sched.next(c.fifos); qi < 0 {
			return nil
		}
		q, a = &c.fifos[qi], c.aqms[qi]
	}
	p := q.Pop()
	if p == nil {
		return nil
	}
	s := e.set
	if s.Pool != nil {
		s.Pool.release(p.Size())
	}
	if c != nil {
		c.sched.consumed(qi, p.Size(), q.Empty())
	}
	sojourn := p.SojournTime(now)
	if sojourn < 0 {
		panic("queue: negative sojourn time")
	}
	marked := a.OnDequeue(now, p, sojourn) && p.ECN == packet.ECT
	kind := trace.MarkUnknown
	if marked {
		p.ECN = packet.CE
		s.Tally.DeqMarks++
		kind = e.mark(a)
	}
	if s.tracer != nil {
		e.emit(trace.Dequeue, trace.MarkUnknown, now, qi, p, sojourn)
		if marked {
			e.emit(trace.ECNMark, kind, now, qi, p, sojourn)
		}
	}
	return p
}
