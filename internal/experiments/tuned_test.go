package experiments

import (
	"bytes"
	"context"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
)

// testCell is the first cell of a sweep spec given as JSON, by default the
// one cell of a 60-flow default spec: websearch ECN♯ on the star at load
// 0.5, seed 1, RTT 70 µs × 3.
func testCell(spec ...string) Cell {
	doc := `{"flows":60}`
	if len(spec) > 0 {
		doc = spec[0]
	}
	s, err := ParseSweepSpec([]byte(doc))
	if err != nil {
		panic(err)
	}
	return s.Cells()[0]
}

// TestTunedAtDefaultsByteIdentical pins the override path against the
// derived path: a Tuned assignment restating exactly the §3.4-derived
// ECN♯ parameters must produce a byte-identical result to the untuned
// cell (modulo the Cell echo, which records the assignment). If this
// drifts, the tuner is optimizing a different simulator than the one the
// figures run.
func TestTunedAtDefaultsByteIdentical(t *testing.T) {
	base := testCell()
	scheme := base.Scheme
	tuned := base
	tuned.Tuned = &TunedParams{Groups: []TunedGroup{{Scope: "all", Params: []TunedValue{
		{Name: "ins_target_us", Value: scheme.Params.InsTarget.Micros()},
		{Name: "pst_target_us", Value: scheme.Params.PstTarget.Micros()},
		{Name: "pst_interval_us", Value: scheme.Params.PstInterval.Micros()},
	}}}}

	rBase, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rTuned, err := tuned.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Compare everything but the Cell echo.
	rTuned.Cell = rBase.Cell
	a, _ := rBase.Encode()
	b, _ := rTuned.Encode()
	if !bytes.Equal(a, b) {
		t.Errorf("tuned-at-defaults result differs from untuned:\nuntuned: %.200s\ntuned:   %.200s", a, b)
	}
}

// TestTunedPerTierAssignment drives the NewAQMAt plumbing end to end on a
// leaf-spine build: scope matching is exercised by construction (every
// egress queue asks for its location's parameters), and the tuned cell
// still runs to completion.
func TestTunedPerTierAssignment(t *testing.T) {
	c := testCell(`{"topo":"leafspine","loads":[0.3],"flows":30,"rtt_min_us":80}`)
	c.Tuned = &TunedParams{Groups: []TunedGroup{
		{Scope: "leaf", Params: []TunedValue{{Name: "ins_target_us", Value: 150}, {Name: "pst_target_us", Value: 60}, {Name: "pst_interval_us", Value: 150}}},
		{Scope: "spine", Params: []TunedValue{{Name: "ins_target_us", Value: 300}, {Name: "pst_target_us", Value: 120}, {Name: "pst_interval_us", Value: 300}}},
	}}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("per-tier tuned run completed no flows")
	}
	// And the assignment must change behavior versus untuned: the cache
	// keys certainly differ.
	plain := c
	plain.Tuned = nil
	if c.Key(ResultSchemaVersion) == plain.Key(ResultSchemaVersion) {
		t.Error("tuned assignment did not change the cache key")
	}
}

// TestTunedValidation pins the failure modes: bad scopes, bad values and
// scheme-mismatched names fail loudly at RunConfig time, and Run returns
// the same error instead of panicking in the AQM build.
func TestTunedValidation(t *testing.T) {
	mk := func(mutate func(*Cell)) error {
		c := testCell()
		c.Tuned = &TunedParams{Groups: []TunedGroup{{Scope: "all",
			Params: []TunedValue{{Name: "ins_target_us", Value: 100}}}}}
		mutate(&c)
		_, err := c.RunConfig()
		if _, runErr := c.Run(context.Background()); (runErr == nil) != (err == nil) {
			t.Errorf("RunConfig error %v, Run error %v", err, runErr)
		}
		return err
	}
	if err := mk(func(*Cell) {}); err != nil {
		t.Fatalf("valid tuned cell rejected: %v", err)
	}
	// only turns the cell into a scheme cell tuning just name = v.
	only := func(scheme, name string, v float64) func(*Cell) {
		return func(c *Cell) {
			var err error
			if c.Scheme, err = SchemeByName(scheme, c.RTT); err != nil {
				t.Fatal(err)
			}
			c.Tuned.Groups[0].Params = []TunedValue{{Name: name, Value: v}}
		}
	}
	cases := map[string]func(*Cell){
		"no groups":      func(c *Cell) { c.Tuned.Groups = nil },
		"empty scope":    func(c *Cell) { c.Tuned.Groups[0].Scope = "" },
		"empty params":   func(c *Cell) { c.Tuned.Groups[0].Params = nil },
		"zero value":     func(c *Cell) { c.Tuned.Groups[0].Params[0].Value = 0 },
		"negative value": func(c *Cell) { c.Tuned.Groups[0].Params[0].Value = -5 },
		"wrong scheme param": func(c *Cell) {
			c.Tuned.Groups[0].Params[0].Name = "k_bytes" // RED's dimension, ECN# cell
		},
		"unknown param": func(c *Cell) { c.Tuned.Groups[0].Params[0].Name = "bogus" },
		"pst above ins": func(c *Cell) {
			c.Tuned.Groups[0].Params = append(c.Tuned.Groups[0].Params, TunedValue{Name: "pst_target_us", Value: 500})
		},
		"duplicate scope": func(c *Cell) {
			c.Tuned.Groups = append(c.Tuned.Groups, c.Tuned.Groups[0])
		},
		// Positive values that truncate to zero in the scheme's unit.
		"codel target 0 ns":  only("codel", "target_us", 0.0001),
		"tcn threshold 0 ns": only("tcn", "threshold_us", 0.0001),
		"red k 0 bytes":      only("red-tail", "k_bytes", 0.0001),
	}
	for name, mutate := range cases {
		if err := mk(mutate); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewAQMAtLocations pins the PortLoc values the builders hand to
// NewAQMAt: tiers, names, and Switch indices that resolve through
// Net.Switches to the same name.
func TestNewAQMAtLocations(t *testing.T) {
	collect := func(build func(opts topology.Options) *topology.Net) (map[string]int, []topology.PortLoc) {
		var locs []topology.PortLoc
		opts := topology.Options{
			Link: topology.LinkParams{RateBps: topology.TenGbps, PropDelay: 5 * sim.Microsecond, BufferBytes: 1 << 20},
			NewAQMAt: func(loc topology.PortLoc, q int) aqm.AQM {
				locs = append(locs, loc)
				return aqm.NewREDInstantBytes(1 << 20)
			},
		}
		net := build(opts)
		tiers := map[string]int{}
		for _, loc := range locs {
			tiers[loc.Tier]++
			if got := net.Switches[loc.Switch].Name(); got != loc.Name {
				t.Errorf("loc %+v resolves to switch %q", loc, got)
			}
		}
		return tiers, locs
	}

	tiers, locs := collect(func(opts topology.Options) *topology.Net {
		return topology.NewStar(4, opts)
	})
	if tiers[topology.TierEdge] != 4 || len(locs) != 4 {
		t.Errorf("star tiers = %v (%d locs), want 4 edge ports", tiers, len(locs))
	}

	tiers, _ = collect(func(opts topology.Options) *topology.Net {
		return topology.NewLeafSpine(2, 2, 2, opts)
	})
	// Per leaf: 2 host downlinks + 2 uplinks; per spine: 2 downlinks.
	if tiers[topology.TierLeaf] != 8 || tiers[topology.TierSpine] != 4 {
		t.Errorf("leafspine tiers = %v, want 8 leaf / 4 spine ports", tiers)
	}
}
