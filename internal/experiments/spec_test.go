package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestParseSweepSpecDefaults(t *testing.T) {
	s, err := ParseSweepSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Topo != "star" || s.Scheme != "ecnsharp" || s.Workload != "websearch" {
		t.Errorf("defaults: topo=%q scheme=%q workload=%q", s.Topo, s.Scheme, s.Workload)
	}
	if len(s.Loads) != 1 || s.Loads[0] != 0.5 || len(s.Seeds) != 1 || s.Seeds[0] != 1 {
		t.Errorf("defaults: loads=%v seeds=%v", s.Loads, s.Seeds)
	}
	if s.Flows != 400 || s.RTTMinUS != 70 || s.RTTVariation != 3 {
		t.Errorf("defaults: flows=%d rtt_min_us=%v rtt_variation=%v", s.Flows, s.RTTMinUS, s.RTTVariation)
	}
}

func TestParseSweepSpecRejects(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"unknown field", `{"sceme":"ecnsharp"}`, "unknown field"},
		{"trailing data", `{} {}`, "trailing data"},
		{"bad topo", `{"topo":"ring"}`, "unknown topology"},
		{"bad scheme", `{"scheme":"pie9"}`, "unknown scheme"},
		{"bad workload", `{"workload":"cachefollower"}`, "unknown workload"},
		{"load too high", `{"loads":[0.5,1.5]}`, "outside (0, 1]"},
		{"negative flows", `{"flows":-3}`, "flows must be positive"},
		{"variation below 1", `{"rtt_variation":0.5}`, "rtt_variation"},
		{"negative shards", `{"shards":-1}`, "shards"},
		{"bad trace events", `{"trace":{"events":"marc"}}`, "trace spec"},
		{"bad trace sample", `{"trace":{"events":"all","sample":-2}}`, "trace sample"},
	}
	for _, tc := range cases {
		if _, err := ParseSweepSpec([]byte(tc.spec)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSweepSpecCellsGrid(t *testing.T) {
	s, err := ParseSweepSpec([]byte(`{"loads":[0.3,0.7],"seeds":[1,2,3],"trace":{"events":"mark,drop"}}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	if len(cells) != 6 {
		t.Fatalf("%d cells, want 6", len(cells))
	}
	// Loads outermost, seeds innermost, spec order.
	if cells[0].Load != 0.3 || cells[0].Seed != 1 || cells[2].Seed != 3 || cells[3].Load != 0.7 {
		t.Errorf("grid order wrong: %+v", cells)
	}
	for _, c := range cells {
		if c.TraceEvents != "mark,drop" || c.TraceSample != 1 {
			t.Errorf("trace fields not propagated: %+v", c)
		}
	}
}

func TestCellKeyDerivation(t *testing.T) {
	base := Cell{Topo: "star", Scheme: "ecnsharp", Workload: "websearch",
		Load: 0.5, Flows: 100, Seed: 1, RTTMinUS: 70, RTTVariation: 3}

	if k1, k2 := base.Key(ResultSchemaVersion), base.Key(ResultSchemaVersion); k1 != k2 {
		t.Errorf("key not deterministic: %s vs %s", k1, k2)
	}
	if len(base.Key(ResultSchemaVersion)) != 64 {
		t.Errorf("key is not hex sha256: %q", base.Key(ResultSchemaVersion))
	}

	// Every output-affecting field must split the key.
	mutations := map[string]Cell{}
	for name, mut := range map[string]func(*Cell){
		"load":     func(c *Cell) { c.Load = 0.7 },
		"seed":     func(c *Cell) { c.Seed = 2 },
		"flows":    func(c *Cell) { c.Flows = 200 },
		"scheme":   func(c *Cell) { c.Scheme = "codel" },
		"workload": func(c *Cell) { c.Workload = "datamining" },
		"topo":     func(c *Cell) { c.Topo = "leafspine" },
		"rtt":      func(c *Cell) { c.RTTVariation = 4 },
		"trace":    func(c *Cell) { c.TraceEvents = "mark"; c.TraceSample = 1 },
	} {
		c := base
		mut(&c)
		mutations[name] = c
	}
	for name, c := range mutations {
		if c.Key(ResultSchemaVersion) == base.Key(ResultSchemaVersion) {
			t.Errorf("mutating %s did not change the key", name)
		}
	}

	// A version bump invalidates everything.
	if base.Key(ResultSchemaVersion) == base.Key(ResultSchemaVersion+".next") {
		t.Error("version bump did not change the key")
	}
}

// TestCellRunDeterministicEncode pins the property the result cache
// depends on: running the same cell twice yields byte-identical encoded
// results, including the captured trace.
func TestCellRunDeterministicEncode(t *testing.T) {
	cell := Cell{Topo: "star", Scheme: "ecnsharp", Workload: "websearch",
		Load: 0.5, Flows: 60, Seed: 7, RTTMinUS: 70, RTTVariation: 3,
		TraceEvents: "mark,drop,flow_finish", TraceSample: 1}

	r1, err := cell.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cell.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same cell, different encoded bytes")
	}
	if r1.Completed == 0 || r1.Completed != r1.Injected {
		t.Errorf("completed %d of %d flows", r1.Completed, r1.Injected)
	}
	if r1.TraceJSONL == "" {
		t.Error("traced cell captured no events")
	}

	// Round trip: the decoded result is the result, field for field, and
	// its records rebuild the same statistics.
	dec, err := DecodeCellResult(b1)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SchemaVersion != ResultSchemaVersion {
		t.Errorf("schema version %q, want %q", dec.SchemaVersion, ResultSchemaVersion)
	}
	if !reflect.DeepEqual(dec, r1) {
		t.Errorf("round-tripped result differs:\n%+v\n%+v", dec, r1)
	}
	if got := dec.Collector().Stats(); got != r1.Stats {
		t.Errorf("round-tripped stats differ:\n%+v\n%+v", got, r1.Stats)
	}
}

// TestCellKeyIndependentOfShards: Shards is a worker count and nothing
// else, so on every topology the cache key, the canonical encoding and the
// result bytes (echoed cell included) are the same at any value.
func TestCellKeyIndependentOfShards(t *testing.T) {
	encode := func(c Cell) []byte {
		t.Helper()
		r, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, topo := range []string{"star", "leafspine"} {
		base := Cell{Topo: topo, Scheme: "ecnsharp", Workload: "websearch",
			Load: 0.5, Flows: 60, Seed: 1, RTTMinUS: 70, RTTVariation: 3}
		want := encode(base)
		for _, n := range []int{1, 4} {
			c := base
			c.Shards = n
			if c.Key(ResultSchemaVersion) != base.Key(ResultSchemaVersion) ||
				!bytes.Equal(c.CanonicalJSON(), base.CanonicalJSON()) {
				t.Errorf("%s: shards %d split the key", topo, n)
			}
			if !bytes.Equal(encode(c), want) {
				t.Errorf("%s: shards %d encodes differently from shards 0", topo, n)
			}
		}
	}
}
