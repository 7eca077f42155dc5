// Package tune is the auto-tuning control plane for ECN♯ (and baseline
// AQM) parameters: a deterministic black-box optimization loop over the
// simulator. The paper derives ins_target, pst_target, pst_interval and K
// by hand from the RTT distribution (§3.4); PET-style tuning instead
// treats pooled tail FCT as an objective and searches the parameter box
// directly, per switch tier when the fabric is heterogeneous.
//
// The moving parts: a Space of bounded dimensions anchored at the paper
// defaults, pluggable Searcher strategies (grid, seeded random, a
// hill-climber with successive step halving), an Objective over pooled
// multi-seed FCT records, and Run, which evaluates candidate vectors as
// experiments.Cell grids through internal/harness — optionally
// content-addressed through internal/cache so re-tuning never recomputes
// a cell. Everything is reproducible from (Spec, Seed) alone: same spec,
// same seed, byte-identical Result at any worker count.
package tune

import (
	"fmt"
	"math"

	"ecnsharp/internal/experiments"
)

// Dim is one bounded tunable dimension. Time-valued dimensions are in
// microseconds, byte-valued ones in bytes (the experiments.TunedValue
// convention).
type Dim struct {
	// Name is the experiments.TunedDimNames name ("ins_target_us", ...).
	Name string `json:"name"`
	// Min and Max bound the dimension inclusively.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Default is the paper-default anchor — the value the scheme's §3.4
	// derivation would pick. It is always the first candidate evaluated,
	// so every tune run scores the hand-derived configuration too.
	Default float64 `json:"default"`
	// Step, when positive, snaps every probed value onto the lattice
	// Min + k·Step; zero leaves the dimension continuous.
	Step float64 `json:"step,omitempty"`
}

// Space is the search box: the cross product of Dims, instantiated once
// per scope for multi-agent assignment. A vector is flattened scope-major:
// vec[i*len(Dims)+j] is dimension j of scope i.
type Space struct {
	// Dims are the per-scope dimensions, in canonical order.
	Dims []Dim `json:"dims"`
	// Scopes are the assignment targets, each matched against switch
	// locations the way experiments.TunedParams prescribes: an exact
	// switch name, a tier ("edge", "leaf", "spine") or "all". Empty means
	// the single shared scope "all".
	Scopes []string `json:"scopes,omitempty"`
}

// scopes returns the effective scope list (["all"] when unset).
func (sp *Space) scopes() []string {
	if len(sp.Scopes) == 0 {
		return []string{"all"}
	}
	return sp.Scopes
}

// NumParams is the flattened vector length: len(Dims) × number of scopes.
func (sp *Space) NumParams() int {
	return len(sp.Dims) * len(sp.scopes())
}

// Validate checks the space is well-formed: at least one dimension,
// unique non-empty names and scopes, finite ordered bounds, anchors
// inside the box, non-negative finite steps.
func (sp *Space) Validate() error {
	if len(sp.Dims) == 0 {
		return fmt.Errorf("tune: space has no dimensions")
	}
	names := make(map[string]bool, len(sp.Dims))
	for _, d := range sp.Dims {
		if d.Name == "" {
			return fmt.Errorf("tune: dimension with empty name")
		}
		if names[d.Name] {
			return fmt.Errorf("tune: duplicate dimension %q", d.Name)
		}
		names[d.Name] = true
		for _, v := range []float64{d.Min, d.Max, d.Default, d.Step} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("tune: dimension %q has a non-finite bound", d.Name)
			}
		}
		if d.Min > d.Max {
			return fmt.Errorf("tune: dimension %q has inverted bounds [%v, %v]", d.Name, d.Min, d.Max)
		}
		if d.Default < d.Min || d.Default > d.Max {
			return fmt.Errorf("tune: dimension %q default %v outside [%v, %v]", d.Name, d.Default, d.Min, d.Max)
		}
		if d.Step < 0 {
			return fmt.Errorf("tune: dimension %q has negative step %v", d.Name, d.Step)
		}
	}
	seen := make(map[string]bool, len(sp.Scopes))
	for _, s := range sp.Scopes {
		if s == "" {
			return fmt.Errorf("tune: empty scope name")
		}
		if seen[s] {
			return fmt.Errorf("tune: duplicate scope %q", s)
		}
		seen[s] = true
	}
	return nil
}

// dim returns the Dim backing flattened parameter index p.
func (sp *Space) dim(p int) Dim {
	return sp.Dims[p%len(sp.Dims)]
}

// ParamName renders flattened parameter index p for humans: the
// dimension name, prefixed with its scope when the space has more than
// one ("leaf/ins_target_us").
func (sp *Space) ParamName(p int) string {
	scopes := sp.scopes()
	name := sp.dim(p).Name
	if len(scopes) == 1 {
		return name
	}
	return scopes[p/len(sp.Dims)] + "/" + name
}

// DefaultVector returns the paper-default anchor: every scope at every
// dimension's Default.
func (sp *Space) DefaultVector() []float64 {
	v := make([]float64, sp.NumParams())
	for p := range v {
		v[p] = sp.dim(p).Default
	}
	return v
}

// Clamp projects a vector into the box in place and returns it: values
// are clamped to [Min, Max] and, for stepped dimensions, snapped to the
// nearest lattice point (which is itself clamped).
func (sp *Space) Clamp(v []float64) []float64 {
	for p := range v {
		d := sp.dim(p)
		x := v[p]
		if d.Step > 0 {
			x = d.Min + float64(math.Round((x-d.Min)/d.Step)*d.Step)
		}
		v[p] = math.Min(d.Max, math.Max(d.Min, x))
	}
	return v
}

// Contains reports whether every component lies inside its bounds.
func (sp *Space) Contains(v []float64) bool {
	if len(v) != sp.NumParams() {
		return false
	}
	for p := range v {
		d := sp.dim(p)
		if math.IsNaN(v[p]) || v[p] < d.Min || v[p] > d.Max {
			return false
		}
	}
	return true
}

// ToTuned materializes a vector as the experiments.TunedParams assignment
// a Cell carries: one group per scope, dimensions in declaration order.
// The ECN♯ coupling constraint pst_target ≤ ins_target (core.Params
// .Validate) is repaired here by clamping pst_target down, so every point
// in the box maps to a valid configuration instead of an error region.
func (sp *Space) ToTuned(v []float64) *experiments.TunedParams {
	scopes := sp.scopes()
	tp := &experiments.TunedParams{Groups: make([]experiments.TunedGroup, len(scopes))}
	nd := len(sp.Dims)
	for i, scope := range scopes {
		vals := make([]experiments.TunedValue, nd)
		ins := -1.0
		for j, d := range sp.Dims {
			vals[j] = experiments.TunedValue{Name: d.Name, Value: v[i*nd+j]}
			if d.Name == "ins_target_us" {
				ins = vals[j].Value
			}
		}
		if ins > 0 {
			for j := range vals {
				if vals[j].Name == "pst_target_us" && vals[j].Value > ins {
					vals[j].Value = ins
				}
			}
		}
		tp.Groups[i] = experiments.TunedGroup{Scope: scope, Params: vals}
	}
	return tp
}
