package trace

// RingRecorder keeps the most recent events in a fixed-capacity ring
// buffer. It is the in-memory tracer for tests and interactive debugging:
// bounded memory no matter how long the run, zero allocation per event
// after construction. To keep only some event types, or every n-th event,
// put a Filter in front of it: NewFilter(ring, mask, stride).
type RingRecorder struct {
	buf     []Event
	head    int // index of the oldest stored event
	count   int
	evicted uint64
}

// NewRingRecorder builds a recorder holding at most capacity events.
func NewRingRecorder(capacity int) *RingRecorder {
	if capacity <= 0 {
		panic("trace: ring capacity must be positive")
	}
	return &RingRecorder{buf: make([]Event, capacity)}
}

// Trace records the event, evicting the oldest stored event when the ring
// is full.
func (r *RingRecorder) Trace(e Event) {
	if r.count < len(r.buf) {
		r.buf[(r.head+r.count)%len(r.buf)] = e
		r.count++
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
	r.evicted++
}

// Events returns the stored events, oldest first, as a fresh slice.
func (r *RingRecorder) Events() []Event {
	out := make([]Event, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}
