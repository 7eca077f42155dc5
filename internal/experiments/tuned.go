package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
)

// TunedParams is an explicit AQM parameter assignment carried by a Cell:
// the tuner's candidate, overriding the RTT-derived defaults of the cell's
// named scheme. Groups are matched per switch location, most specific
// first — exact switch name ("leaf3"), then tier ("edge", "leaf",
// "spine"), then "all" — so one cell can run different marking parameters
// on heterogeneous tiers (multi-agent tuning). All fields are value types
// with exact JSON encodings, keeping Cell canonicalization and cache keys
// deterministic; a cell without Tuned encodes exactly as before.
type TunedParams struct {
	// Groups lists the parameter assignments. Within one precedence level
	// the first matching group wins; scopes must be unique.
	Groups []TunedGroup `json:"groups"`
}

// TunedGroup assigns one parameter vector to a scope.
type TunedGroup struct {
	// Scope is "all", a tier name ("edge", "leaf", "spine") or an exact
	// switch name ("sw0", "leaf3").
	Scope string `json:"scope"`
	// Params are the dimension values by name (see TunedDimNames); slices,
	// not maps, so the JSON encoding is canonical.
	Params []TunedValue `json:"params"`
}

// TunedValue is one named parameter value. Time-valued dimensions are in
// microseconds, byte-valued ones in bytes.
type TunedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// TunedDimNames returns the tunable dimension names of a scheme, the
// naming authority shared with internal/tune: ECN♯ exposes
// ins_target_us / pst_target_us / pst_interval_us, the RED variants
// k_bytes, CoDel target_us / interval_us, TCN threshold_us.
func TunedDimNames(kind SchemeKind) []string {
	switch kind {
	case SchemeREDTail, SchemeREDAvg, SchemeREDFixed:
		return []string{"k_bytes"}
	case SchemeCoDel:
		return []string{"target_us", "interval_us"}
	case SchemeTCN:
		return []string{"threshold_us"}
	case SchemeECNSharp:
		return []string{"ins_target_us", "pst_target_us", "pst_interval_us"}
	default:
		return nil
	}
}

// Validate checks structural well-formedness: at least one group, unique
// non-empty scopes, unique finite positive parameter values per group.
// Scheme compatibility of the names is checked by ApplyTuned, which knows
// the base scheme.
func (tp *TunedParams) Validate() error {
	if len(tp.Groups) == 0 {
		return fmt.Errorf("experiments: tuned params need at least one group")
	}
	scopes := make(map[string]bool, len(tp.Groups))
	for _, g := range tp.Groups {
		if g.Scope == "" {
			return fmt.Errorf("experiments: tuned group with empty scope")
		}
		if scopes[g.Scope] {
			return fmt.Errorf("experiments: duplicate tuned scope %q", g.Scope)
		}
		scopes[g.Scope] = true
		if len(g.Params) == 0 {
			return fmt.Errorf("experiments: tuned scope %q has no params", g.Scope)
		}
		names := make(map[string]bool, len(g.Params))
		for _, v := range g.Params {
			if v.Name == "" {
				return fmt.Errorf("experiments: tuned scope %q has a param with empty name", g.Scope)
			}
			if names[v.Name] {
				return fmt.Errorf("experiments: tuned scope %q repeats param %q", g.Scope, v.Name)
			}
			names[v.Name] = true
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				return fmt.Errorf("experiments: tuned scope %q param %q must be a finite positive value (got %v)", g.Scope, v.Name, v.Value)
			}
		}
	}
	return nil
}

// ApplyTuned overrides base's parameters with vals and validates the
// outcome. Unknown names — including names valid for a different scheme —
// are errors, so a tune space mismatched against the cell's scheme fails
// loudly instead of silently running the defaults.
func ApplyTuned(base Scheme, vals []TunedValue) (Scheme, error) {
	s := base
	isRED := base.Kind == SchemeREDTail || base.Kind == SchemeREDAvg || base.Kind == SchemeREDFixed
	for _, v := range vals {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
			return Scheme{}, fmt.Errorf("experiments: tuned param %q must be a finite positive value (got %v)", v.Name, v.Value)
		}
		switch {
		case v.Name == "k_bytes" && isRED:
			s.KBytes = int64(v.Value)
		case v.Name == "target_us" && base.Kind == SchemeCoDel:
			s.Target = sim.Micros(v.Value)
		case v.Name == "interval_us" && base.Kind == SchemeCoDel:
			s.Interval = sim.Micros(v.Value)
		case v.Name == "threshold_us" && base.Kind == SchemeTCN:
			s.TCNThreshold = sim.Micros(v.Value)
		case v.Name == "ins_target_us" && base.Kind == SchemeECNSharp:
			s.Params.InsTarget = sim.Micros(v.Value)
		case v.Name == "pst_target_us" && base.Kind == SchemeECNSharp:
			s.Params.PstTarget = sim.Micros(v.Value)
		case v.Name == "pst_interval_us" && base.Kind == SchemeECNSharp:
			s.Params.PstInterval = sim.Micros(v.Value)
		default:
			return Scheme{}, fmt.Errorf("experiments: param %q does not apply to scheme %q (tunable: %v)", v.Name, s.Label, TunedDimNames(base.Kind))
		}
	}
	if s.Kind == SchemeECNSharp {
		if err := s.Params.Validate(); err != nil {
			return Scheme{}, fmt.Errorf("experiments: tuned ECN# params invalid: %w", err)
		}
	}
	return s, nil
}

// AQMAt compiles the assignment into a RunConfig.AQMAt hook (which ignores
// the run's rng): every group's parameters are applied to base up front
// (so errors surface at configuration time, not mid-construction), and
// locations matching no group fall back to base.
func (tp *TunedParams) AQMAt(base Scheme) (func(*rand.Rand) func(topology.PortLoc, int) aqm.AQM, error) {
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	factories := make([]func(q int) aqm.AQM, len(tp.Groups))
	for i, g := range tp.Groups {
		s, err := ApplyTuned(base, g.Params)
		if err != nil {
			return nil, fmt.Errorf("experiments: tuned scope %q: %w", g.Scope, err)
		}
		factories[i] = s.Factory(nil)
	}
	fallback := base.Factory(nil)
	groups := tp.Groups
	at := func(loc topology.PortLoc, q int) aqm.AQM {
		for i := range groups {
			if groups[i].Scope == loc.Name {
				return factories[i](q)
			}
		}
		for i := range groups {
			if groups[i].Scope == loc.Tier {
				return factories[i](q)
			}
		}
		for i := range groups {
			if groups[i].Scope == "all" {
				return factories[i](q)
			}
		}
		return fallback(q)
	}
	return func(*rand.Rand) func(topology.PortLoc, int) aqm.AQM { return at }, nil
}
