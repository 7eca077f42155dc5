package queue

import (
	"ecnsharp/internal/aqm"
	"ecnsharp/internal/packet"
)

// Deficits returns a copy of a DWRR port's per-queue deficit counters.
func (e *Egress) Deficits() []int64 { return append([]int64(nil), e.classes.sched.deficits...) }

// QueueLen returns the queued packets of service queue i.
func (e *Egress) QueueLen(i int) int {
	fifos, _ := e.queues()
	return fifos[i].Len()
}

// classQueue returns the index of the service queue p's class maps to.
func (e *Egress) classQueue(p *packet.Packet) int { return min(int(p.Class), e.NumQueues()-1) }

// Used returns the bytes currently held.
func (p *SharedPool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// NewFIFO returns an empty FIFO.
func NewFIFO() *FIFO { return new(FIFO) }

// AQM returns the AQM attached to service queue i.
func (e *Egress) AQM(i int) aqm.AQM {
	_, aqms := e.queues()
	return aqms[i]
}
