package tune

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"ecnsharp/internal/experiments"
)

// FuzzParseTuneSpec fuzzes the spec loader the way FuzzReadSpecs fuzzes
// the workload trace loader: arbitrary bytes either fail cleanly or
// produce a normalized spec whose canonical form round-trips to an
// identical spec — parse(canonical(parse(x))) == parse(x) — with sane
// invariants (finite ordered bounds, positive budget, anchors in-box), and
// the box's all-Min, all-Default and all-Max vectors apply to the sweep's
// scheme and build an AQM.
func FuzzParseTuneSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"sweep":{}}`))
	f.Add([]byte(smallSpecJSON))
	f.Add([]byte(`{"sweep":{"topo":"leafspine"},"per_tier":true,"searcher":"grid","grid_points":3}`))
	f.Add([]byte(`{"searcher":"random","budget":7,"seed":42,"objective":"slowdown"}`))
	f.Add([]byte(`{"objective":"mix","mix_p99_weight":0.8,"mix_avg_weight":0.2}`))
	f.Add([]byte(`{"space":{"dims":[{"name":"ins_target_us","min":400,"max":100,"default":200}]}}`))
	f.Add([]byte(`{"space":{"dims":[{"name":"ins_target_us","min":1e999,"max":2,"default":1}]}}`))
	f.Add([]byte(`{"space":{"dims":[{"name":"k_bytes","min":-5,"max":10,"default":1}]}}`))
	f.Add([]byte(`{"budget":-3}`))
	f.Add([]byte(`{"sweep":{"loads":[2.0]}}`))
	f.Add([]byte(`{} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return // rejection is a valid outcome; it must just not panic
		}
		// Accepted specs are normalized: space resolved and sane.
		if spec.Space == nil {
			t.Fatal("accepted spec has no resolved space")
		}
		for _, d := range spec.Space.Dims {
			for _, v := range []float64{d.Min, d.Max, d.Default, d.Step} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite dimension %+v", d)
				}
			}
			if d.Min > d.Max || d.Min <= 0 {
				t.Fatalf("accepted bad bounds %+v", d)
			}
			if d.Default < d.Min || d.Default > d.Max {
				t.Fatalf("accepted out-of-box anchor %+v", d)
			}
		}
		if spec.Budget < 1 {
			t.Fatalf("accepted budget %d", spec.Budget)
		}
		scheme := spec.Sweep.Cells()[0].Scheme
		for _, corner := range []func(Dim) float64{
			func(d Dim) float64 { return d.Min },
			func(d Dim) float64 { return d.Default },
			func(d Dim) float64 { return d.Max },
		} {
			v := make([]float64, spec.Space.NumParams())
			for p := range v {
				v[p] = corner(spec.Space.dim(p))
			}
			for _, g := range spec.Space.ToTuned(v).Groups {
				s, err := experiments.ApplyTuned(scheme, g.Params)
				if err != nil {
					t.Fatalf("accepted space %+v, but %v does not apply: %v", spec.Space, g.Params, err)
				}
				s.Factory(rand.New(rand.NewSource(1)))(0)
			}
		}

		// Canonicalize → reparse → canonicalize must be a fixed point.
		canon, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("canonicalizing accepted spec: %v", err)
		}
		spec2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		canon2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatalf("re-canonicalizing: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonicalization not a fixed point:\n1: %s\n2: %s", canon, canon2)
		}
	})
}
