package main

// The reference box is shared, and its speed drifts by tens of percent over
// minutes, for every kind of code at once (README.md, "Noise"). A time
// measured on it says as much about the neighbours as about the program. So
// the timed operations of a run are interleaved with probes: a fixed piece
// of work that belongs to the benchmark, not to the program, and therefore
// costs the same on every commit. Each operation's seconds are scaled by how
// fast the probes next to it ran, which takes the drift out and leaves what
// the program itself costs.
//
// One probe round is two pieces of roughly equal duration: dependent
// integer arithmetic, and the churn of a binary heap of timestamped entries
// (the inner loop of a discrete-event simulator) over 2 MB.

// probeNominal is the seconds one probe round takes on the reference box
// when it is quiet, so that a speed index of 1 means "quiet reference box"
// and scaled seconds read like seconds there.
const probeNominal = 0.075

const (
	probeALUSteps    = 15_000_000
	probeHeapEntries = 1 << 17 // 2 MB of heap entries
	probeHeapOps     = 250_000 // pop + push pairs per round
)

// probeSink keeps the compiler from discarding the probe's arithmetic.
var probeSink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

type probeEntry struct {
	at uint64
	id uint64
}

type probeHeap []probeEntry

func (h *probeHeap) push(e probeEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *probeHeap) pop() probeEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && s[l].at < s[m].at {
			m = l
		}
		if r < last && s[r].at < s[m].at {
			m = r
		}
		if m == i {
			break
		}
		s[m], s[i] = s[i], s[m]
		i = m
	}
	return top
}

// probe returns the median host seconds of the given number of rounds of
// the fixed work.
func probe(rounds int) float64 {
	rng := uint64(2463534242)
	heap := make(probeHeap, 0, probeHeapEntries)
	for i := 0; i < probeHeapEntries; i++ {
		rng = xorshift(rng)
		heap.push(probeEntry{at: rng % 1_000_000, id: uint64(i)})
	}
	took := make([]float64, rounds)
	for r := range took {
		took[r] = wallOf(func() {
			x := rng
			for i := 0; i < probeALUSteps; i++ {
				x = xorshift(x)
			}
			for i := 0; i < probeHeapOps; i++ {
				e := heap.pop()
				x = xorshift(x)
				e.at += x % 1_000_000
				heap.push(e)
			}
			rng = x
		})
	}
	probeSink += rng
	return median(took)
}

// section is the timed part of a run: its operations in order, and the
// probes taken between them. With scale set, each operation's seconds are
// multiplied by the speed index of the two probes around it.
type section struct {
	scale  bool
	ops    []timedOp
	probes []float64
	from   int // first operation since the latest probe
}

type timedOp struct {
	wall, cpu float64 // host seconds as measured
	index     float64 // speed index of the probes around the operation
}

// probed records a probe. The operations since the previous probe ran
// between the two and take the mean of both as their probe time.
func (s *section) probed(p float64) {
	if n := len(s.probes); n > 0 {
		for i := s.from; i < len(s.ops); i++ {
			s.ops[i].index = probeNominal / ((s.probes[n-1] + p) / 2)
		}
	}
	s.probes = append(s.probes, p)
	s.from = len(s.ops)
}

// next starts a section scaled like s at s's latest probe.
func (s *section) next() section {
	n := section{scale: s.scale}
	n.probed(s.probes[len(s.probes)-1])
	return n
}

func (s *section) add(wall, cpu float64) {
	s.ops = append(s.ops, timedOp{wall: wall, cpu: cpu})
}

// factor is what an operation's seconds are multiplied by.
func (s *section) factor(op timedOp) float64 {
	if s.scale {
		return op.index
	}
	return 1
}

// seconds returns each operation's wall seconds, scaled if the section is.
func (s *section) seconds() []float64 {
	out := make([]float64, len(s.ops))
	for i, op := range s.ops {
		out[i] = op.wall * s.factor(op)
	}
	return out
}

// raw returns each operation's wall seconds as measured.
func (s *section) raw() []float64 {
	out := make([]float64, len(s.ops))
	for i, op := range s.ops {
		out[i] = op.wall
	}
	return out
}

// cpu is the CPU seconds of all operations, scaled like their wall seconds.
func (s *section) cpu() float64 {
	var t float64
	for _, op := range s.ops {
		t += op.cpu * s.factor(op)
	}
	return t
}

// speedIndex is how fast the box ran while the given probes were taken,
// relative to the quiet reference box: above 1 is faster.
func speedIndex(probes []float64) float64 {
	return probeNominal / median(probes)
}
