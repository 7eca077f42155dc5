package queue

import "ecnsharp/internal/aqm"

// Deficits returns a copy of the per-queue deficit counters (for tests).
func (d *DWRR) Deficits() []int64 { return append([]int64(nil), d.deficits...) }

// QueueLen returns the queued packets of service queue i.
func (e *Egress) QueueLen(i int) int { return e.queues[i].Len() }

// Used returns the bytes currently held.
func (p *SharedPool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// NewFIFO returns an empty FIFO.
func NewFIFO() *FIFO {
	f := new(FIFO)
	f.Init()
	return f
}

// AQM returns the AQM attached to service queue i.
func (e *Egress) AQM(i int) aqm.AQM { return e.aqms[i] }
