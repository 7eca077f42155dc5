package queue

import "ecnsharp/internal/packet"

// dwrr is Deficit Weighted Round Robin (Shreedhar & Varghese): each visit to
// a nonempty queue grants it Quantum×weight bytes of deficit; the queue is
// served while its deficit covers the head packet, then the pointer moves
// on. Long-run byte shares converge to the weight ratios (2:1:1 in the
// Figure 13 experiment). An emptied queue forfeits its remaining deficit.
type dwrr struct {
	weights  []int
	quantum  int64
	deficits []int64
	cur      int
	granted  bool
}

// newDWRR builds a DWRR scheduler over len(weights) queues. Quantum is one
// MTU so a single grant always covers at least one packet.
func newDWRR(weights []int) dwrr {
	if len(weights) == 0 {
		panic("queue: DWRR needs at least one weight")
	}
	for _, w := range weights {
		if w <= 0 {
			panic("queue: DWRR weights must be positive")
		}
	}
	return dwrr{
		weights:  append([]int(nil), weights...),
		quantum:  int64(packet.MTU),
		deficits: make([]int64, len(weights)),
	}
}

// next returns the index of the queue of qs to serve, which is nonempty,
// or -1 if all are empty. After the caller dequeues that queue's head it
// must call consumed.
func (d *dwrr) next(qs []FIFO) int {
	nonempty := false
	for i := range qs {
		if !qs[i].Empty() {
			nonempty = true
			break
		}
	}
	if !nonempty {
		return -1
	}
	for {
		q := &qs[d.cur]
		if q.Empty() {
			d.deficits[d.cur] = 0
			d.advance()
			continue
		}
		if !d.granted {
			d.deficits[d.cur] += d.quantum * int64(d.weights[d.cur])
			d.granted = true
		}
		if d.deficits[d.cur] >= int64(q.Peek().Size()) {
			return d.cur
		}
		d.advance()
	}
}

// consumed charges queue q the bytes of the packet it just released, and
// forfeits its deficit if it is now empty.
func (d *dwrr) consumed(q int, bytes int, nowEmpty bool) {
	d.deficits[q] -= int64(bytes)
	if nowEmpty {
		d.deficits[q] = 0
		if q == d.cur {
			d.advance()
		}
	}
}

func (d *dwrr) advance() {
	d.cur = (d.cur + 1) % len(d.weights)
	d.granted = false
}
