package queue

import "sync"

// SharedPool models a switch's shared packet buffer with Dynamic
// Thresholds (DT, Choudhury & Hahne): all egress queues of the switch
// draw from one pool of Capacity bytes, and a queue may only grow while
//
//	queueBytes + pkt ≤ Alpha × (Capacity − used)
//
// so a single congested port can absorb far more than a static per-port
// share when the switch is otherwise idle, yet cannot starve other ports
// under contention. Real datacenter switches (including the Tofino the
// paper deploys on) buffer this way; the static per-port bound used by
// the default experiments is the conservative special case.
//
// The mutex only guards accounting invariants if a future caller shares a
// pool across engines; within one simulation all access is single-threaded.
type SharedPool struct {
	Capacity int64
	// Alpha is the DT factor (typical hardware values 0.5–8); <= 0 means
	// no dynamic threshold, only the pool bound.
	Alpha float64

	mu   sync.Mutex
	used int64

	// Rejected counts packets refused admission (pool-level drops).
	Rejected int64
}

// NewSharedPool builds a pool.
func NewSharedPool(capacity int64, alpha float64) *SharedPool {
	if capacity <= 0 {
		panic("queue: shared pool capacity must be positive")
	}
	return &SharedPool{Capacity: capacity, Alpha: alpha}
}

// admit reserves size bytes for a queue currently holding queueBytes; it
// reports false (and counts a rejection) if either the pool or the
// dynamic threshold forbids it.
func (p *SharedPool) admit(queueBytes int64, size int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.Capacity - p.used
	if int64(size) > free {
		p.Rejected++
		return false
	}
	if p.Alpha > 0 && float64(queueBytes)+float64(size) > p.Alpha*float64(free) {
		p.Rejected++
		return false
	}
	p.used += int64(size)
	return true
}

// release returns size bytes to the pool.
func (p *SharedPool) release(size int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.used -= int64(size)
	if p.used < 0 {
		panic("queue: shared pool released more than reserved")
	}
}
