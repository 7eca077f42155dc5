package tune

import (
	"math"
	"testing"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
)

// testRTT is the default sweep's RTT model (70 µs base, 3x variation).
func testRTT() rttvar.RTTDistribution {
	return rttvar.NewVariation(sim.Micros(70), 3)
}

func TestSpaceValidate(t *testing.T) {
	good := func() *Space { return twoDim() }
	if err := good().Validate(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	cases := map[string]func(*Space){
		"no dims":          func(sp *Space) { sp.Dims = nil },
		"empty name":       func(sp *Space) { sp.Dims[0].Name = "" },
		"duplicate name":   func(sp *Space) { sp.Dims[1].Name = sp.Dims[0].Name },
		"inverted bounds":  func(sp *Space) { sp.Dims[0].Min, sp.Dims[0].Max = 10, 0 },
		"NaN bound":        func(sp *Space) { sp.Dims[0].Max = math.NaN() },
		"inf bound":        func(sp *Space) { sp.Dims[0].Min = math.Inf(-1) },
		"default outside":  func(sp *Space) { sp.Dims[0].Default = 1000 },
		"negative step":    func(sp *Space) { sp.Dims[0].Step = -1 },
		"empty scope":      func(sp *Space) { sp.Scopes = []string{""} },
		"duplicate scopes": func(sp *Space) { sp.Scopes = []string{"leaf", "leaf"} },
	}
	for name, mutate := range cases {
		sp := good()
		mutate(sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDefaultSpaceMatchesSchemes: for every named tunable scheme, the
// default box has the scheme's dims in TunedDimNames order, anchored at
// the scheme's own values.
func TestDefaultSpaceMatchesSchemes(t *testing.T) {
	for _, name := range []string{"ecnsharp", "red-tail", "red-avg", "codel", "tcn"} {
		sweep := experiments.SweepSpec{Scheme: name}
		if err := sweep.Normalize(); err != nil {
			t.Fatal(err)
		}
		sp, err := DefaultSpace(&sweep, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scheme, err := experiments.SchemeByName(name, testRTT())
		if err != nil {
			t.Fatal(err)
		}
		own := scheme.TunedDims()
		names := experiments.TunedDimNames(scheme.Kind)
		if len(sp.Dims) != len(names) || len(own) != len(names) {
			t.Fatalf("%s: %d dims, %d own values, names %v", name, len(sp.Dims), len(own), names)
		}
		for i, d := range sp.Dims {
			if d.Name != names[i] || d.Default != own[i].Value {
				t.Errorf("%s: dim %d = %s anchored at %v, want %s at %v", name, i, d.Name, d.Default, names[i], own[i].Value)
			}
		}
	}
}

func TestSpaceClampSnaps(t *testing.T) {
	sp := &Space{Dims: []Dim{{Name: "x", Min: 10, Max: 20, Default: 10, Step: 4}}}
	for _, tc := range []struct{ in, want float64 }{
		{9, 10}, {25, 20}, {11, 10}, {12.5, 14}, {17, 18}, {19.5, 18},
	} {
		got := sp.Clamp([]float64{tc.in})[0]
		if got != tc.want {
			t.Errorf("Clamp(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSpaceVectorLayout(t *testing.T) {
	sp := twoDim()
	sp.Scopes = []string{"leaf", "spine"}
	if sp.NumParams() != 4 {
		t.Fatalf("NumParams = %d, want 4", sp.NumParams())
	}
	v := sp.DefaultVector()
	want := []float64{50, 0, 50, 0}
	if !equalVec(v, want) {
		t.Fatalf("DefaultVector = %v, want %v", v, want)
	}
	tuned := sp.ToTuned([]float64{1, 2, 3, 4})
	if len(tuned.Groups) != 2 || tuned.Groups[0].Scope != "leaf" || tuned.Groups[1].Scope != "spine" {
		t.Fatalf("groups = %+v", tuned.Groups)
	}
	if tuned.Groups[1].Params[0].Value != 3 || tuned.Groups[1].Params[1].Value != 4 {
		t.Errorf("spine params = %+v, want [3 4]", tuned.Groups[1].Params)
	}
}

// TestToTunedRepairsECNSharpCoupling pins the pst_target ≤ ins_target
// repair: any box point must map to a configuration core.Params accepts.
func TestToTunedRepairsECNSharpCoupling(t *testing.T) {
	sp := &Space{Dims: []Dim{
		{Name: "ins_target_us", Min: 10, Max: 400, Default: 200},
		{Name: "pst_target_us", Min: 10, Max: 400, Default: 85},
	}}
	tuned := sp.ToTuned([]float64{50, 300})
	var ins, pst float64
	for _, p := range tuned.Groups[0].Params {
		switch p.Name {
		case "ins_target_us":
			ins = p.Value
		case "pst_target_us":
			pst = p.Value
		}
	}
	if ins != 50 || pst != 50 {
		t.Errorf("repair gave ins=%v pst=%v, want pst clamped to ins=50", ins, pst)
	}
	// The repaired assignment must pass the experiments-layer validation
	// all the way into the per-scope schemes.
	scheme, err := experiments.SchemeByName("ecnsharp", testRTT())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuned.Schemes(scheme); err != nil {
		t.Errorf("repaired params rejected: %v", err)
	}
}
