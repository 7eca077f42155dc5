package experiments

import (
	"fmt"
	"math"
	"slices"

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

// tunedDim is one tunable dimension of a scheme kind: its TunedValue
// name, the floor under any search box, and the Scheme field it sets —
// a time field tuned in microseconds (us) or a byte field tuned in bytes.
type tunedDim struct {
	name  string
	floor float64
	us    func(*Scheme) *sim.Time
	bytes func(*Scheme) *int64
}

// get reads the dimension's value from s, in its unit.
func (d tunedDim) get(s *Scheme) float64 {
	if d.us != nil {
		return d.us(s).Micros()
	}
	return float64(*d.bytes(s))
}

// set stores v into s, rejecting a value that converts to zero or less in
// the field's unit (0.0001 µs is 0 ns; 0.5 bytes is 0 bytes).
func (d tunedDim) set(s *Scheme, v float64) error {
	if d.us != nil {
		if t := sim.Micros(v); t > 0 {
			*d.us(s) = t
			return nil
		}
	} else if b := int64(v); b > 0 {
		*d.bytes(s) = b
		return nil
	}
	return fmt.Errorf("experiments: tuned param %q = %v is not positive in its unit", d.name, v)
}

// redDims is the DCTCP-RED variants' one dimension.
var redDims = []tunedDim{
	{name: "k_bytes", floor: 1500, bytes: func(s *Scheme) *int64 { return &s.KBytes }},
}

// tunedDims lists each tunable kind's dimensions in canonical order; a
// kind missing here has none.
var tunedDims = map[SchemeKind][]tunedDim{
	SchemeREDTail:  redDims,
	SchemeREDAvg:   redDims,
	SchemeREDFixed: redDims,
	SchemeCoDel: {
		{name: "target_us", floor: 2, us: func(s *Scheme) *sim.Time { return &s.Target }},
		{name: "interval_us", floor: 10, us: func(s *Scheme) *sim.Time { return &s.Interval }},
	},
	SchemeTCN: {
		{name: "threshold_us", floor: 5, us: func(s *Scheme) *sim.Time { return &s.TCNThreshold }},
	},
	SchemeECNSharp: {
		{name: "ins_target_us", floor: 5, us: func(s *Scheme) *sim.Time { return &s.Params.InsTarget }},
		{name: "pst_target_us", floor: 2, us: func(s *Scheme) *sim.Time { return &s.Params.PstTarget }},
		{name: "pst_interval_us", floor: 10, us: func(s *Scheme) *sim.Time { return &s.Params.PstInterval }},
	},
}

// TunedDimNames returns the tunable dimension names of a scheme, the
// naming authority shared with internal/tune: ECN♯ exposes
// ins_target_us / pst_target_us / pst_interval_us, the DCTCP-RED variants
// k_bytes, CoDel target_us / interval_us, TCN threshold_us.
func TunedDimNames(kind SchemeKind) []string {
	var names []string
	for _, d := range tunedDims[kind] {
		names = append(names, d.name)
	}
	return names
}

// TunedDim is one tunable dimension of a scheme as a search box sees it.
type TunedDim struct {
	// Name is the TunedValue name.
	Name string
	// Value is the scheme's own setting, in the dimension's unit.
	Value float64
	// Floor is the lowest bound a default search box should reach.
	Floor float64
}

// TunedDims returns s's tunable dimensions in canonical order, at s's own
// values (nil when its kind has none).
func (s Scheme) TunedDims() []TunedDim {
	var out []TunedDim
	for _, d := range tunedDims[s.Kind] {
		out = append(out, TunedDim{Name: d.name, Value: d.get(&s), Floor: d.floor})
	}
	return out
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
	dims := tunedDims[base.Kind]
	for _, v := range vals {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
			return Scheme{}, fmt.Errorf("experiments: tuned param %q must be a finite positive value (got %v)", v.Name, v.Value)
		}
		i := slices.IndexFunc(dims, func(d tunedDim) bool { return d.name == v.Name })
		if i < 0 {
			return Scheme{}, fmt.Errorf("experiments: param %q does not apply to scheme %q (tunable: %v)", v.Name, s.Label, TunedDimNames(base.Kind))
		}
		if err := dims[i].set(&s, v.Value); err != nil {
			return Scheme{}, err
		}
	}
	if s.Kind == SchemeECNSharp {
		if err := s.Params.Validate(); err != nil {
			return Scheme{}, fmt.Errorf("experiments: tuned ECN# params invalid: %w", err)
		}
	}
	return s, nil
}

// Schemes applies every group's parameters to base and returns one scheme
// per group, in group order, so a bad assignment fails before any AQM is
// built.
func (tp *TunedParams) Schemes(base Scheme) ([]Scheme, error) {
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	out := make([]Scheme, len(tp.Groups))
	for i, g := range tp.Groups {
		s, err := ApplyTuned(base, g.Params)
		if err != nil {
			return nil, fmt.Errorf("experiments: tuned scope %q: %w", g.Scope, err)
		}
		out[i] = s
	}
	return out, nil
}

// scopeOf returns the index of the group governing a switch location —
// exact name, then tier, then "all" — or -1 when none does.
func (tp *TunedParams) scopeOf(loc topology.PortLoc) int {
	for _, scope := range [...]string{loc.Name, loc.Tier, "all"} {
		for i := range tp.Groups {
			if tp.Groups[i].Scope == scope {
				return i
			}
		}
	}
	return -1
}
