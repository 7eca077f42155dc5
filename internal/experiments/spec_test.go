package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ecnsharp/internal/sim"
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
		{"largest RTT above a second", `{"rtt_min_us":700,"rtt_variation":1e300}`, "rtt_variation"},
		{"rtt min above a second", `{"rtt_min_us":1e300}`, "rtt_min_us"},
		{"rtt min below a nanosecond", `{"rtt_min_us":1e-300}`, "rtt_min_us"},
		{"load below the minimum", `{"loads":[0.5,1e-300]}`, "load 1e-300"},
		{"negative shards", `{"shards":-1}`, "shards"},
		{"bad trace events", `{"trace":{"events":"marc"}}`, "trace spec"},
		{"bad trace events lists the names", `{"trace":{"events":"marc"}}`, "(known: enqueue,dequeue,drop,mark,"},
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
	if cells[0].Traffic.Poisson.Load != 0.3 || cells[0].Seed != 1 || cells[2].Seed != 3 || cells[3].Traffic.Poisson.Load != 0.7 {
		t.Errorf("grid order wrong: %+v", cells)
	}
	for _, c := range cells {
		if c.Trace == nil || *c.Trace != (TraceSpec{Events: "mark,drop", Sample: 1}) {
			t.Errorf("trace selection not propagated: %+v", c.Trace)
		}
	}
}

// TestCellKeyDerivation: the key is a function of the run the cell
// executes. Every spec field that reaches the simulator splits it, and so
// does every resolved field the spec names only through a preset — the
// buffer, the transport defaults, the thresholds ECN♯ derives from the RTT
// model. The worker count does not.
func TestCellKeyDerivation(t *testing.T) {
	base := testCell(`{"flows":100}`)
	key := base.Key(ResultSchemaVersion)
	if k := base.Key(ResultSchemaVersion); k != key {
		t.Errorf("key not deterministic: %s vs %s", key, k)
	}
	if len(key) != 64 {
		t.Errorf("key is not hex sha256: %q", key)
	}

	for name, spec := range map[string]string{
		"load":     `{"flows":100,"loads":[0.7]}`,
		"seed":     `{"flows":100,"seeds":[2]}`,
		"flows":    `{"flows":200}`,
		"scheme":   `{"flows":100,"scheme":"codel"}`,
		"workload": `{"flows":100,"workload":"datamining"}`,
		"topo":     `{"flows":100,"topo":"leafspine"}`,
		"rtt":      `{"flows":100,"rtt_variation":4}`,
		"trace":    `{"flows":100,"trace":{"events":"mark"}}`,
	} {
		if testCell(spec).Key(ResultSchemaVersion) == key {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	for name, mut := range map[string]func(*Cell){
		"buffer_bytes": func(c *Cell) { c.BufferBytes /= 2 },
		"min_rto":      func(c *Cell) { c.Transport.MinRTO *= 2 },
		"ins_target":   func(c *Cell) { c.Scheme.Params.InsTarget += sim.Microsecond },
	} {
		c := base
		mut(&c)
		if c.Key(ResultSchemaVersion) == key {
			t.Errorf("mutating resolved %s did not change the key", name)
		}
	}
	if base.Scheme.Params == testCell(`{"flows":100,"rtt_min_us":80}`).Scheme.Params {
		t.Error("ECN# parameters did not follow the RTT model")
	}

	sharded := base
	sharded.Shards = 4
	if sharded.Key(ResultSchemaVersion) != key {
		t.Error("shards split the key")
	}

	// A version bump invalidates everything.
	if key == base.Key(ResultSchemaVersion+".next") {
		t.Error("version bump did not change the key")
	}
}

// TestCellRunDeterministicEncode pins the property the result cache
// depends on: running the same cell twice yields byte-identical encoded
// results, including the captured trace.
func TestCellRunDeterministicEncode(t *testing.T) {
	cell := testCell(`{"flows":60,"seeds":[7],"trace":{"events":"mark,drop,flow_finish"}}`)

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
		base := testCell(`{"flows":60,"topo":"` + topo + `"}`)
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

// FuzzParseSweepSpec: ParseSweepSpec never panics; a spec it accepts,
// marshalled and parsed again, expands into the same cell keys; and each
// cell's canonical encoding, decoded as a result's cell echo is and
// encoded again, keeps its bytes and its key. The seeds
// include three values whose times overflowed sim.Time before Validate
// bounded them: they panicked while parsing or in the cell.
func FuzzParseSweepSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"topo":"leafspine","scheme":"red-tail","workload":"datamining","loads":[0.3,0.7],"flows":40,"seeds":[1,2],"rtt_min_us":50,"rtt_variation":8,"shards":2}`,
		`{"scheme":"codel","trace":{"events":"mark,drop","sample":3}}`,
		`{"scheme":"tcn","loads":[0.001,1],"rtt_min_us":0.001,"rtt_variation":1e9}`,
		`{"rtt_variation": 1e300}`,
		`{"rtt_min_us": 1e300}`,
		`{"loads": [1e-300]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSweepSpec(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshalling accepted spec %s: %v", data, err)
		}
		s2, err := ParseSweepSpec(again)
		if err != nil {
			t.Fatalf("re-parsing %s (from %s): %v", again, data, err)
		}
		a, b := s.Cells(), s2.Cells()
		if len(a) != len(b) {
			t.Fatalf("%s: %d cells, re-parsed %d", data, len(a), len(b))
		}
		for i := range a {
			if ka, kb := a[i].Key(ResultSchemaVersion), b[i].Key(ResultSchemaVersion); ka != kb {
				t.Fatalf("%s: cell %d key %s, re-parsed %s", data, i, ka, kb)
			}
			canon := a[i].CanonicalJSON()
			r, err := DecodeCellResult([]byte(`{"cell":` + string(canon) + `,"records":null}`))
			if err != nil {
				t.Fatalf("%s: cell %d echo %s does not decode: %v", data, i, canon, err)
			}
			if again := r.Cell.CanonicalJSON(); !bytes.Equal(again, canon) {
				t.Fatalf("%s: cell %d canonical form moved through its echo:\n%s\n%s", data, i, canon, again)
			}
			if r.Cell.Key(ResultSchemaVersion) != a[i].Key(ResultSchemaVersion) {
				t.Fatalf("%s: cell %d key moved through its echo", data, i)
			}
		}
	})
}
