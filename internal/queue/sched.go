package queue

import "ecnsharp/internal/packet"

// View gives a Scheduler read access to the queues it arbitrates.
type View interface {
	NumQueues() int
	QueueEmpty(i int) bool
	HeadSize(i int) int
}

// Scheduler picks which service queue the egress port serves next.
//
// Next returns a queue index with a nonempty queue, or -1 if all queues are
// empty. After the caller dequeues the head of that queue it must call
// Consumed with the packet size and whether the queue is now empty.
type Scheduler interface {
	Name() string
	Next(v View) int
	Consumed(q int, bytes int, nowEmpty bool)
}

// FIFOSched serves a single queue (or queue 0 first, strictly); it is the
// degenerate scheduler for single-service ports.
type FIFOSched struct{}

// Name returns "fifo".
func (FIFOSched) Name() string { return "fifo" }

// Next returns the first nonempty queue.
func (FIFOSched) Next(v View) int {
	for i := 0; i < v.NumQueues(); i++ {
		if !v.QueueEmpty(i) {
			return i
		}
	}
	return -1
}

// Consumed is a no-op.
func (FIFOSched) Consumed(int, int, bool) {}

// DWRR is Deficit Weighted Round Robin (Shreedhar & Varghese): each visit to
// a nonempty queue grants it Quantum×weight bytes of deficit; the queue is
// served while its deficit covers the head packet, then the pointer moves
// on. Long-run byte shares converge to the weight ratios (2:1:1 in the
// Figure 13 experiment). An emptied queue forfeits its remaining deficit.
type DWRR struct {
	weights  []int
	quantum  int64
	deficits []int64
	cur      int
	granted  bool
}

// NewDWRR builds a DWRR scheduler over len(weights) queues. Quantum is one
// MTU so a single grant always covers at least one packet.
func NewDWRR(weights []int) *DWRR {
	if len(weights) == 0 {
		panic("queue: DWRR needs at least one weight")
	}
	for _, w := range weights {
		if w <= 0 {
			panic("queue: DWRR weights must be positive")
		}
	}
	return &DWRR{
		weights:  append([]int(nil), weights...),
		quantum:  int64(packet.MTU),
		deficits: make([]int64, len(weights)),
	}
}

// Name returns "dwrr".
func (d *DWRR) Name() string { return "dwrr" }

// Next implements Scheduler.
func (d *DWRR) Next(v View) int {
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

// Consumed implements Scheduler.
func (d *DWRR) Consumed(q int, bytes int, nowEmpty bool) {
	d.deficits[q] -= int64(bytes)
	if nowEmpty {
		d.deficits[q] = 0
		if q == d.cur {
			d.advance()
		}
	}
}

func (d *DWRR) advance() {
	d.cur = (d.cur + 1) % len(d.weights)
	d.granted = false
}
