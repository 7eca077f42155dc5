package tune

import "math"

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
