package tune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
)

// Spec is the tune request document shared by `ecnsim -tune` and the
// daemon's POST /v1/tune: the sweep being tuned (its loads × seeds grid
// is one candidate's evaluation), the search strategy and budget, the
// objective, and optionally an explicit Space. Every field defaults, so
// `{"sweep":{}}` — and even `{}` — is a valid spec: hill-climb the ECN♯
// star/websearch defaults against pooled short-flow p99.
type Spec struct {
	// Sweep configures the cells each candidate is evaluated on; the
	// candidate's parameters override the sweep scheme's derived ones.
	// Sweep.Shards means what it does in any sweep: a worker count that
	// never affects bytes.
	Sweep experiments.SweepSpec `json:"sweep"`
	// Searcher is "grid", "random" or "hillclimb" (the default).
	Searcher string `json:"searcher,omitempty"`
	// Budget caps fresh candidate evaluations (each = len(Loads) ×
	// len(Seeds) simulator cells). It is a soft cap checked between
	// searcher rounds: a round that begins is evaluated in full, so the
	// searcher's Propose/Observe contract is never broken mid-batch.
	Budget int `json:"budget,omitempty"`
	// Seed drives candidate sampling. Together with the rest of the spec
	// it pins the whole run: same (spec, seed) ⇒ byte-identical Result.
	Seed int64 `json:"seed,omitempty"`
	// Objective is "short-p99" (default), "slowdown" or "mix".
	Objective string `json:"objective,omitempty"`
	// MixP99Weight and MixAvgWeight parameterize the "mix" objective
	// (defaults 0.5 each).
	MixP99Weight float64 `json:"mix_p99_weight,omitempty"`
	MixAvgWeight float64 `json:"mix_avg_weight,omitempty"`
	// PerTier, on a leafspine sweep, splits the default space into
	// separate leaf and spine scopes — multi-agent tuning on the
	// heterogeneous fabric. Ignored when Space is set explicitly.
	PerTier bool `json:"per_tier,omitempty"`
	// Space overrides the scheme-derived default search box.
	Space *Space `json:"space,omitempty"`
	// GridPoints is the grid searcher's per-parameter lattice size.
	GridPoints int `json:"grid_points,omitempty"`
	// Restarts is the hill climber's random seed-point count.
	Restarts int `json:"restarts,omitempty"`
	// StepFrac and MinStepFrac are the hill climber's initial and
	// convergence step sizes as fractions of each dimension's range.
	StepFrac    float64 `json:"step_frac,omitempty"`
	MinStepFrac float64 `json:"min_step_frac,omitempty"`
}

// ParseSpec decodes and normalizes a JSON tune spec, rejecting unknown
// fields and trailing data like experiments.ParseSweepSpec does.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("tune: bad tune spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("tune: bad tune spec: trailing data after JSON document")
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalize fills defaults and validates in place; idempotent. After
// Normalize, ResolvedSpace is non-nil and validated.
func (s *Spec) Normalize() error {
	if err := s.Sweep.Normalize(); err != nil {
		return err
	}
	if s.Searcher == "" {
		s.Searcher = "hillclimb"
	}
	if s.Budget == 0 {
		s.Budget = 24
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Objective == "" {
		s.Objective = "short-p99"
	}
	if s.MixP99Weight == 0 && s.MixAvgWeight == 0 {
		s.MixP99Weight, s.MixAvgWeight = 0.5, 0.5
	}
	if s.Budget < 1 {
		return fmt.Errorf("tune: budget must be positive (got %d)", s.Budget)
	}
	for _, v := range []float64{s.MixP99Weight, s.MixAvgWeight, s.StepFrac, s.MinStepFrac} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("tune: weights and step fractions must be finite and non-negative")
		}
	}
	if s.GridPoints < 0 || s.Restarts < 0 {
		return fmt.Errorf("tune: grid_points and restarts must be non-negative")
	}
	if _, err := ObjectiveByName(s.Objective, s.Sweep.RTTMinUS, s.MixP99Weight, s.MixAvgWeight); err != nil {
		return err
	}
	if _, err := NewSearcher(s.Searcher, s.GridPoints, s.Budget, s.Restarts, s.StepFrac, s.MinStepFrac); err != nil {
		return err
	}
	if s.Space == nil {
		sp, err := DefaultSpace(&s.Sweep, s.PerTier)
		if err != nil {
			return err
		}
		s.Space = sp
	}
	if err := s.Space.Validate(); err != nil {
		return err
	}
	if err := s.checkCorners(); err != nil {
		return err
	}
	if s.Searcher == "grid" && gridTotal(s.GridPoints, s.Space.NumParams()) > MaxGridPoints {
		return fmt.Errorf("tune: grid lattice exceeds %d points — reduce grid_points or dimensions", MaxGridPoints)
	}
	return nil
}

// checkCorners rejects a space whose values the sweep's scheme cannot
// take: the all-Min, all-Default and all-Max vectors must each apply
// through ToTuned and experiments.ApplyTuned. That covers the whole box —
// every check ApplyTuned makes is monotone in each value, and ToTuned
// repairs the one coupling between two dimensions.
func (s *Spec) checkCorners() error {
	scheme, err := sweepScheme(&s.Sweep)
	if err != nil {
		return err
	}
	for _, corner := range []func(Dim) float64{
		func(d Dim) float64 { return d.Min },
		func(d Dim) float64 { return d.Default },
		func(d Dim) float64 { return d.Max },
	} {
		v := make([]float64, s.Space.NumParams())
		for p := range v {
			v[p] = corner(s.Space.dim(p))
		}
		if _, err := s.Space.ToTuned(v).Schemes(scheme); err != nil {
			return fmt.Errorf("tune: space does not fit scheme %q: %w", s.Sweep.Scheme, err)
		}
	}
	return nil
}

// sweepScheme resolves the normalized sweep's scheme the way its cells do.
func sweepScheme(sweep *experiments.SweepSpec) (experiments.Scheme, error) {
	rtt := rttvar.NewVariation(sim.Micros(sweep.RTTMinUS), sweep.RTTVariation)
	return experiments.SchemeByName(sweep.Scheme, rtt)
}

// DefaultSpace derives the search box for the sweep's scheme, anchored at
// the same §3.4 derivation SchemeByName performs: each dimension spans
// [anchor/8, anchor·4] (floored at a few microseconds or one MTU) around
// the hand-derived default. perTier splits a leafspine sweep into leaf
// and spine scopes; otherwise the single "all" scope is shared.
func DefaultSpace(sweep *experiments.SweepSpec, perTier bool) (*Space, error) {
	scheme, err := sweepScheme(sweep)
	if err != nil {
		return nil, err
	}
	var dims []Dim
	for _, d := range scheme.TunedDims() {
		anchor := math.Max(d.Value, d.Floor)
		dims = append(dims, Dim{Name: d.Name, Min: math.Max(d.Floor, anchor/8), Max: anchor * 4, Default: anchor})
	}
	if dims == nil {
		return nil, fmt.Errorf("tune: scheme %q has no tunable dimensions", sweep.Scheme)
	}
	sp := &Space{Dims: dims}
	if perTier && sweep.Topo == "leafspine" {
		sp.Scopes = []string{"leaf", "spine"}
	}
	return sp, nil
}
