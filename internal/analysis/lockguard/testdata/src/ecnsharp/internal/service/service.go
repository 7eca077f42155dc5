// Package service holds the lockguard true positives: response writes,
// channel operations, Cell.Run and RunCells under a held mutex, plus a
// value-receiver method on a lock-holding type.
package service

import (
	"fmt"
	"net/http"
	"sync"

	"ecnsharp/internal/experiments"
)

// sweepWatcher mimics the daemon's per-sweep state.
type sweepWatcher struct {
	mu      sync.Mutex
	state   string
	results chan int
}

// handleHelper writes under the lock via a helper that takes the writer.
func (sw *sweepWatcher) handleHelper(w http.ResponseWriter) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	fmt.Fprintf(w, "state=%s", sw.state) // want `HTTP response write \(Fprintf receives the ResponseWriter\) while sw.mu is held`
}

// handleMethod writes under the lock via a ResponseWriter method.
func (sw *sweepWatcher) handleMethod(w http.ResponseWriter) {
	sw.mu.Lock()
	w.WriteHeader(http.StatusOK) // want `HTTP response write \(w.WriteHeader\) while sw.mu is held`
	sw.mu.Unlock()
}

// sendHeld sends on a channel inside the critical section.
func (sw *sweepWatcher) sendHeld(v int) {
	sw.mu.Lock()
	sw.results <- v // want `channel send while sw.mu is held`
	sw.mu.Unlock()
}

// recvHeld receives inside the critical section.
func (sw *sweepWatcher) recvHeld() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return <-sw.results // want `channel receive while sw.mu is held`
}

// runHeld executes a whole simulation under the daemon lock.
func (sw *sweepWatcher) runHeld(c *experiments.Cell) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	c.Run() // want `Cell.Run executes a whole simulation while sw.mu is held`
}

// sweepHeld executes a whole sweep under the daemon lock.
func (sw *sweepWatcher) sweepHeld(cells []experiments.Cell) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	experiments.RunCells(cells) // want `RunCells executes whole simulations while sw.mu is held`
}

// counters is a lock-holding type with a broken value-receiver method.
type counters struct {
	mu sync.Mutex
	n  int
}

// Inc locks a copy of the receiver: the critical section is a no-op.
func (c counters) Inc() { // want `method Inc has a value receiver, but its type contains a sync.Mutex`
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}
