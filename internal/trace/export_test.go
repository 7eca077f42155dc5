package trace

// Len returns the number of events currently stored.
func (r *RingRecorder) Len() int { return r.count }

// Evicted returns how many stored events were overwritten by wraparound.
func (r *RingRecorder) Evicted() uint64 { return r.evicted }

// Reset discards all stored events and the eviction count, keeping the
// capacity.
func (r *RingRecorder) Reset() {
	r.head, r.count, r.evicted = 0, 0, 0
}
