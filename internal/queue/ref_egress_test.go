package queue

import (
	"fmt"
	"reflect"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// eventLog is a tracer that keeps every event.
type eventLog []trace.Event

func (l *eventLog) Trace(e trace.Event) { *l = append(*l, e) }

// FuzzEgressOrder drives an Egress and the reference refEgress with the same
// enqueues (class, size, ECT, time), dequeues and DropAlls from the fuzz
// input, on a single-queue port and on DWRR {2, 1, 1}, each under a buffer
// bound and under a SharedPool. Each side has its own AQMs (ECN♯, an
// enqueue-side RED threshold and TCN, rotated over the queues by the first
// byte), pools and tracer. They must dequeue the same packets in the same
// order with the same CE marks, drop the same packets, and agree on the
// tally, the backlog, the head age, the pool and every trace event.
func FuzzEgressOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 4, 5, 4})
	f.Add([]byte{1, 0x20, 0x28, 0x30, 0x38, 0xe0, 0xe8, 0xf0, 4, 0x44, 0x84, 0xc4, 7, 0x18, 5})
	f.Add([]byte{2, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf6, 0xf5, 0xf4, 0xf3, 0xf2, 0xf1, 0xf0, 0x44, 0x45, 0x84, 0xc5, 0xc4, 0xc7})
	params := core.Params{InsTarget: 40 * sim.Microsecond, PstTarget: 10 * sim.Microsecond, PstInterval: 50 * sim.Microsecond}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		rot, ops := int(ops[0]), ops[1:]
		aqmFor := func(i int) aqm.AQM {
			switch (i + rot) % 3 {
			case 0:
				return aqm.MustNewECNSharp(params)
			case 1:
				return aqm.NewREDInstantBytes(4000)
			}
			return aqm.NewTCN(20 * sim.Microsecond)
		}
		for _, weights := range [][]int{nil, {2, 1, 1}} {
			for _, shared := range []bool{false, true} {
				name := fmt.Sprintf("weights %v, shared pool %v", weights, shared)
				var bound int64 = 8000
				var pl, refPl packet.Pool
				e := NewEgress(weights, bound, aqmFor)
				e.Settings().PacketPool = &pl
				var log, refLog eventLog
				e.SetTracer(&log, 3)
				var ref *refEgress
				if weights == nil {
					ref = newRefEgress(1, nil, bound, aqmFor)
				} else {
					ref = newRefEgress(len(weights), newRefDWRR(weights), bound, aqmFor)
				}
				ref.PacketPool = &refPl
				ref.SetTracer(&refLog, 3)
				if shared {
					e.Settings().Pool = NewSharedPool(2*bound, 1)
					ref.Pool = NewSharedPool(2*bound, 1)
				}
				var now sim.Time
				for i, op := range ops {
					now += sim.Time(op>>6) * 5 * sim.Microsecond
					switch op & 7 {
					case 4, 5:
						p, want := e.Dequeue(now), ref.Dequeue(now)
						if (p == nil) != (want == nil) {
							t.Fatalf("%s: op %d: Dequeue returned %v, the reference %v", name, i, p, want)
						}
						if p == nil {
							continue
						}
						if p.Seq != want.Seq || p.ECN != want.ECN || p.Class != want.Class || p.Size() != want.Size() || p.EnqueuedAt != want.EnqueuedAt || p.Next != nil {
							t.Fatalf("%s: op %d: dequeued %+v, the reference %+v", name, i, *p, *want)
						}
						pl.Put(p)
						refPl.Put(want)
					case 7:
						if got, want := e.DropAll(now), ref.DropAll(now); got != want {
							t.Fatalf("%s: op %d: DropAll dropped %d packets, the reference %d", name, i, got, want)
						}
					default:
						for _, side := range []*packet.Pool{&pl, &refPl} {
							p := side.Get()
							p.Kind, p.Seq, p.PayloadLen, p.Class = packet.Data, int64(i), int32(op)*5, op>>3&3
							if op&0x20 != 0 {
								p.ECN = packet.ECT
							}
							if side == &pl {
								e.Enqueue(now, p)
							} else {
								ref.Enqueue(now, p)
							}
						}
					}
					if e.Len() != ref.Len() || e.Bytes() != ref.bytes || e.Empty() != (ref.Len() == 0) {
						t.Fatalf("%s: op %d: egress holds %d packets, %d bytes; the reference %d, %d", name, i, e.Len(), e.Bytes(), ref.Len(), ref.bytes)
					}
					if *e.Settings().Tally != *ref.Tally {
						t.Fatalf("%s: op %d: tally %+v, the reference %+v", name, i, *e.Settings().Tally, *ref.Tally)
					}
					if got, want := e.HeadAge(now), refHeadAge(ref, now); got != want {
						t.Fatalf("%s: op %d: head age %v, the reference %v", name, i, got, want)
					}
					if shared && (e.set.Pool.Used() != ref.Pool.Used() || e.set.Pool.Rejected != ref.Pool.Rejected) {
						t.Fatalf("%s: op %d: shared pool used %d rejected %d, the reference %d, %d", name, i, e.set.Pool.Used(), e.set.Pool.Rejected, ref.Pool.Used(), ref.Pool.Rejected)
					}
				}
				if !reflect.DeepEqual(log, refLog) {
					t.Fatalf("%s: %d trace events differ from the reference's %d", name, len(log), len(refLog))
				}
				if pl.Puts != refPl.Puts {
					t.Fatalf("%s: %d packets back in the pool, the reference %d", name, pl.Puts, refPl.Puts)
				}
			}
		}
	})
}

// refHeadAge is the oldest head-of-line sojourn across ref's queues.
func refHeadAge(ref *refEgress, now sim.Time) sim.Time {
	var oldest sim.Time
	for i := range ref.queues {
		if p := ref.queues[i].Peek(); p != nil {
			oldest = max(oldest, p.SojournTime(now))
		}
	}
	return oldest
}

// refEgress is the reference FuzzEgressOrder holds Egress to: the egress as
// it was before a single-queue port lost its slices and scheduler. Every
// port holds its queues and AQMs as slices, with its own buffer bound,
// pools, tally and tracer, and dequeues through a scheduler interface over
// a view of itself; a single-queue port is served by refFIFOSched.
type refEgress struct {
	queues []FIFO
	aqms   []aqm.AQM
	sched  refScheduler

	BufferBytes int64
	Pool        *SharedPool
	PacketPool  *packet.Pool

	bytes int64

	tracer trace.Tracer
	port   int

	Tally *Tally

	// Backing arrays of queues and aqms on a single-queue port.
	queue0 [1]FIFO
	aqm0   [1]aqm.AQM
}

// newRefEgress builds a reference egress with n service queues under sched
// (nil: refFIFOSched), counting into a Tally of its own.
func newRefEgress(n int, sched refScheduler, bufferBytes int64, aqmFor func(i int) aqm.AQM) *refEgress {
	if n <= 0 {
		panic("queue: egress needs at least one queue")
	}
	if sched == nil {
		sched = refFIFOSched{}
	}
	e := &refEgress{sched: sched, BufferBytes: bufferBytes, port: -1, Tally: new(Tally)}
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
	return e
}

func (e *refEgress) SetTracer(t trace.Tracer, port int) {
	e.tracer = t
	e.port = port
}

func (e *refEgress) emit(typ trace.Type, kind trace.MarkKind, now sim.Time, qi int, p *packet.Packet, sojourn sim.Time) {
	var seq int64
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

func (e *refEgress) drop(now sim.Time, p *packet.Packet) {
	e.Tally.Drops++
	e.Tally.DropBytes += int64(p.Size())
	if e.tracer != nil {
		e.emit(trace.Drop, trace.MarkUnknown, now, e.classQueue(p), p, 0)
	}
	e.PacketPool.Put(p)
}

func (e *refEgress) DropAll(now sim.Time) int {
	n := 0
	for qi := range e.queues {
		q := &e.queues[qi]
		for p := q.Pop(); p != nil; p = q.Pop() {
			e.bytes -= int64(p.Size())
			if e.Pool != nil {
				e.Pool.release(p.Size())
			}
			e.drop(now, p)
			n++
		}
		e.sched.Consumed(qi, 0, true)
	}
	return n
}

func (e *refEgress) mark(qi int) trace.MarkKind {
	kind := trace.MarkUnknown
	if k, ok := e.aqms[qi].(aqm.MarkKinder); ok {
		kind = k.LastMarkKind()
	}
	e.Tally.MarkKinds[kind]++
	return kind
}

func (e *refEgress) NumQueues() int { return len(e.queues) }

func (e *refEgress) QueueEmpty(i int) bool { return e.queues[i].Empty() }

func (e *refEgress) HeadSize(i int) int {
	p := e.queues[i].Peek()
	if p == nil {
		return 0
	}
	return p.Size()
}

func (e *refEgress) Len() int {
	n := 0
	for i := range e.queues {
		n += e.queues[i].Len()
	}
	return n
}

func (e *refEgress) classQueue(p *packet.Packet) int {
	return min(int(p.Class), len(e.queues)-1)
}

func (e *refEgress) Enqueue(now sim.Time, p *packet.Packet) bool {
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

func (e *refEgress) Dequeue(now sim.Time) *packet.Packet {
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

// refView gives a refScheduler read access to the queues it arbitrates.
type refView interface {
	NumQueues() int
	QueueEmpty(i int) bool
	HeadSize(i int) int
}

// refScheduler picks which service queue the egress port serves next: Next
// returns a nonempty queue's index or -1, and the caller reports each
// dequeue with Consumed.
type refScheduler interface {
	Next(v refView) int
	Consumed(q int, bytes int, nowEmpty bool)
}

// refFIFOSched serves the first nonempty queue.
type refFIFOSched struct{}

func (refFIFOSched) Next(v refView) int {
	for i := 0; i < v.NumQueues(); i++ {
		if !v.QueueEmpty(i) {
			return i
		}
	}
	return -1
}

func (refFIFOSched) Consumed(int, int, bool) {}

// refDWRR is DWRR over a refView.
type refDWRR struct {
	weights  []int
	quantum  int64
	deficits []int64
	cur      int
	granted  bool
}

func newRefDWRR(weights []int) *refDWRR {
	return &refDWRR{
		weights:  append([]int(nil), weights...),
		quantum:  int64(packet.MTU),
		deficits: make([]int64, len(weights)),
	}
}

func (d *refDWRR) Next(v refView) int {
	n := v.NumQueues()
	if n != len(d.weights) {
		panic("queue: DWRR queue count mismatch")
	}
	nonempty := false
	for i := 0; i < n; i++ {
		if !v.QueueEmpty(i) {
			nonempty = true
			break
		}
	}
	if !nonempty {
		return -1
	}
	for {
		if v.QueueEmpty(d.cur) {
			d.deficits[d.cur] = 0
			d.advance()
			continue
		}
		if !d.granted {
			d.deficits[d.cur] += d.quantum * int64(d.weights[d.cur])
			d.granted = true
		}
		if d.deficits[d.cur] >= int64(v.HeadSize(d.cur)) {
			return d.cur
		}
		d.advance()
	}
}

func (d *refDWRR) Consumed(q int, bytes int, nowEmpty bool) {
	d.deficits[q] -= int64(bytes)
	if nowEmpty {
		d.deficits[q] = 0
		if q == d.cur {
			d.advance()
		}
	}
}

func (d *refDWRR) advance() {
	d.cur = (d.cur + 1) % len(d.weights)
	d.granted = false
}
