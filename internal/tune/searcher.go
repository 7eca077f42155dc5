package tune

import (
	"fmt"
	"math"
	"math/rand"
)

// Searcher proposes batches of candidate vectors and learns from their
// scores. The contract is strictly alternating: each Propose batch is
// answered by exactly one Observe call carrying the batch's scores in
// order (lower is better). An empty Propose batch means the searcher has
// converged. Implementations must be deterministic given the Space and
// the seeded rng — they never consult wall clocks or global randomness —
// and must propose only in-box vectors (Space.Clamp'd).
type Searcher interface {
	// Name identifies the strategy in specs and results.
	Name() string
	// Propose returns the next candidate batch, or nil when done.
	Propose(sp *Space, rng *rand.Rand) [][]float64
	// Observe reports the scores of the last proposed batch, in order.
	Observe(scores []float64)
}

// MaxGridPoints bounds the grid searcher's cross product; Spec.Normalize
// rejects lattices larger than this before any evaluation starts.
const MaxGridPoints = 10_000

// Grid exhaustively evaluates a lattice of Points values per parameter,
// endpoints included, as a single batch. With the budget capping fresh
// evaluations, a too-large lattice is truncated in lattice order.
type Grid struct {
	// Points is the number of values per parameter (>= 1; 1 = Default).
	Points int

	proposed bool
}

// Name implements Searcher.
func (g *Grid) Name() string { return "grid" }

// Propose implements Searcher: the entire lattice, once.
func (g *Grid) Propose(sp *Space, _ *rand.Rand) [][]float64 {
	if g.proposed {
		return nil
	}
	g.proposed = true
	n := sp.NumParams()
	points := g.Points
	if points < 1 {
		points = 3
	}
	// Per-parameter value lists; a degenerate dimension contributes one.
	values := make([][]float64, n)
	for p := 0; p < n; p++ {
		d := sp.dim(p)
		if points == 1 || d.Max == d.Min {
			values[p] = []float64{d.Default}
			continue
		}
		vs := make([]float64, points)
		for i := range vs {
			vs[i] = d.Min + float64(i)*(d.Max-d.Min)/float64(points-1)
		}
		values[p] = vs
	}
	total := 1
	for _, vs := range values {
		total *= len(vs)
		if total > MaxGridPoints {
			total = MaxGridPoints
			break
		}
	}
	// Odometer enumeration, last parameter fastest.
	batch := make([][]float64, 0, total)
	idx := make([]int, n)
	for len(batch) < total {
		v := make([]float64, n)
		for p := range v {
			v[p] = values[p][idx[p]]
		}
		batch = append(batch, sp.Clamp(v))
		p := n - 1
		for p >= 0 {
			idx[p]++
			if idx[p] < len(values[p]) {
				break
			}
			idx[p] = 0
			p--
		}
		if p < 0 {
			break
		}
	}
	return batch
}

// Observe implements Searcher; grid search learns nothing.
func (g *Grid) Observe([]float64) {}

// Random samples Samples vectors uniformly from the box as a single
// batch, reproducibly from the run's seeded rng.
type Random struct {
	// Samples is the batch size (>= 1).
	Samples int

	proposed bool
}

// Name implements Searcher.
func (r *Random) Name() string { return "random" }

// Propose implements Searcher: one uniform batch, once.
func (r *Random) Propose(sp *Space, rng *rand.Rand) [][]float64 {
	if r.proposed {
		return nil
	}
	r.proposed = true
	n := sp.NumParams()
	samples := r.Samples
	if samples < 1 {
		samples = 16
	}
	batch := make([][]float64, samples)
	for i := range batch {
		v := make([]float64, n)
		for p := range v {
			d := sp.dim(p)
			v[p] = d.Min + float64(rng.Float64()*(d.Max-d.Min))
		}
		batch[i] = sp.Clamp(v)
	}
	return batch
}

// Observe implements Searcher; random search learns nothing.
func (r *Random) Observe([]float64) {}

// HillClimb is a coordinate-descent hill climber with successive step
// halving: it seeds from the paper-default anchor plus Restarts random
// points, adopts the best as incumbent, then repeatedly probes ±step
// along every parameter. An improving probe moves the incumbent; a round
// with no improvement halves every step, and the search converges when
// all steps fall below MinStepFrac of their dimension's range.
type HillClimb struct {
	// Restarts is the number of random seed points beside the anchor.
	Restarts int
	// StepFrac is the initial step as a fraction of each range (0, 1].
	StepFrac float64
	// MinStepFrac is the convergence threshold fraction.
	MinStepFrac float64

	started   bool
	done      bool
	incumbent []float64
	incScore  float64
	steps     []float64
	lastBatch [][]float64
	// pendingHalve defers a no-improvement halving to the next Propose,
	// where the Space (and thus the convergence scaling) is available.
	pendingHalve bool
}

// Name implements Searcher.
func (h *HillClimb) Name() string { return "hillclimb" }

func (h *HillClimb) params() (restarts int, stepFrac, minStepFrac float64) {
	restarts, stepFrac, minStepFrac = h.Restarts, h.StepFrac, h.MinStepFrac
	if restarts < 0 {
		restarts = 0
	}
	if stepFrac <= 0 || stepFrac > 1 {
		stepFrac = 0.25
	}
	if minStepFrac <= 0 {
		minStepFrac = 1.0 / 64
	}
	return restarts, stepFrac, minStepFrac
}

// Propose implements Searcher: the seed batch first, then ±step probes
// around the incumbent until every step has shrunk below threshold.
func (h *HillClimb) Propose(sp *Space, rng *rand.Rand) [][]float64 {
	if h.done {
		return nil
	}
	n := sp.NumParams()
	restarts, stepFrac, minStepFrac := h.params()
	if !h.started {
		h.started = true
		h.steps = make([]float64, n)
		for p := range h.steps {
			d := sp.dim(p)
			h.steps[p] = stepFrac * (d.Max - d.Min)
		}
		batch := [][]float64{sp.DefaultVector()}
		for i := 0; i < restarts; i++ {
			v := make([]float64, n)
			for p := range v {
				d := sp.dim(p)
				v[p] = d.Min + float64(rng.Float64()*(d.Max-d.Min))
			}
			batch = append(batch, sp.Clamp(v))
		}
		h.lastBatch = batch
		return batch
	}
	for {
		if h.pendingHalve {
			h.pendingHalve = false
			if !h.halve(sp, minStepFrac) {
				h.done = true
				return nil
			}
		}
		var batch [][]float64
		for p := 0; p < n; p++ {
			if h.steps[p] <= 0 {
				continue
			}
			for _, dir := range []float64{+1, -1} {
				v := append([]float64(nil), h.incumbent...)
				v[p] += float64(dir * h.steps[p])
				sp.Clamp(v)
				if !equalVec(v, h.incumbent) {
					batch = append(batch, v)
				}
			}
		}
		if len(batch) > 0 {
			h.lastBatch = batch
			return batch
		}
		// Every probe collapsed onto the incumbent (step below the snap
		// lattice or outside the box): halve and retry, or converge.
		if !h.halve(sp, minStepFrac) {
			h.done = true
			return nil
		}
	}
}

// Observe implements Searcher.
func (h *HillClimb) Observe(scores []float64) {
	if h.done || len(scores) != len(h.lastBatch) {
		h.done = true
		return
	}
	best := 0
	for i := range scores {
		if scores[i] < scores[best] {
			best = i
		}
	}
	if h.incumbent == nil {
		// Seed round: adopt the best seed unconditionally.
		h.incumbent = append([]float64(nil), h.lastBatch[best]...)
		h.incScore = scores[best]
		return
	}
	if scores[best] < h.incScore {
		h.incumbent = append([]float64(nil), h.lastBatch[best]...)
		h.incScore = scores[best]
		return
	}
	// No probe improved: steps halve at the start of the next Propose.
	h.pendingHalve = true
}

// halve divides every step by two; it reports false when all steps are
// below minStepFrac of their range, i.e. convergence.
func (h *HillClimb) halve(sp *Space, minStepFrac float64) bool {
	alive := false
	for p := range h.steps {
		h.steps[p] /= 2
		d := sp.dim(p)
		span := d.Max - d.Min
		if span > 0 && h.steps[p] >= minStepFrac*span {
			alive = true
		} else {
			h.steps[p] = 0
		}
	}
	return alive
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NewSearcher builds the named strategy: "grid", "random" or
// "hillclimb". The knobs map onto Spec fields; zero values select the
// defaults documented on each type.
func NewSearcher(name string, gridPoints, samples, restarts int, stepFrac, minStepFrac float64) (Searcher, error) {
	switch name {
	case "grid":
		return &Grid{Points: gridPoints}, nil
	case "random":
		return &Random{Samples: samples}, nil
	case "hillclimb":
		return &HillClimb{Restarts: restarts, StepFrac: stepFrac, MinStepFrac: minStepFrac}, nil
	default:
		return nil, fmt.Errorf("tune: unknown searcher %q (want grid, random or hillclimb)", name)
	}
}

// gridTotal computes the lattice size Points^NumParams with saturation,
// for Spec validation.
func gridTotal(points, numParams int) int {
	if points < 1 {
		points = 3
	}
	total := 1
	for i := 0; i < numParams; i++ {
		total *= points
		if total > MaxGridPoints {
			return math.MaxInt32
		}
	}
	return total
}
