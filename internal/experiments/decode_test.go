package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/workload"
)

// agreesWithJSON is the decoder's contract: whatever DecodeCellResult
// accepts, encoding/json accepts too and decodes to the same value. It
// reports whether DecodeCellResult accepted data.
func agreesWithJSON(t *testing.T, data []byte) bool {
	t.Helper()
	got, err := DecodeCellResult(data)
	if err != nil {
		return false
	}
	var want CellResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("DecodeCellResult accepted what encoding/json rejects (%v):\n%s", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeCellResult and encoding/json disagree on\n%s\ngot  %+v\nwant %+v", data, got, want)
	}
	return true
}

// decodeSeeds are results of the shapes a store holds, with their Encode
// output: a traced star cell (escaped trace_jsonl), a tuned cell, a figure's
// sampled cell (two long flows into one port: queue samples and goodput),
// and hand-built results with query flows, no records and the int64
// extremes. Only the sampled cell's bytes hold the series' keys: a sweep
// cell has no sampling window.
func decodeSeeds(t testing.TB) ([]CellResult, [][]byte) {
	traced := testCell()
	traced.Trace = &TraceSpec{Events: "mark,drop,flow_finish", Sample: 1}
	tuned := testCell()
	tuned.Tuned = &TunedParams{Groups: []TunedGroup{{Scope: "all",
		Params: []TunedValue{{Name: "ins_target_us", Value: 150}}}}}
	sampled := testCell()
	sampled.Hosts, sampled.Traffic = 3, Traffic{}
	sampled.Flows = []workload.FlowSpec{workload.LongFlow(0, 2, 0), workload.LongFlow(1, 2, 0)}
	sampled.SampleEnd, sampled.SampleInterval = 2*sim.Millisecond, 250*sim.Microsecond
	sampled.Deadline = sampled.SampleEnd
	var results []CellResult
	for _, c := range []Cell{traced, tuned, sampled} {
		r, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r.Report = nil // a decoded result has none
		results = append(results, r)
	}
	extremes := CellResult{SchemaVersion: ResultSchemaVersion, Cell: testCell(),
		Records: []metrics.FCTRecord{
			{Size: math.MaxInt64, FCT: math.MinInt64, Query: true},
			{Size: math.MinInt64, FCT: math.MaxInt64},
			{Size: 0, FCT: 0, Query: true},
		},
		Drops: math.MaxInt64, Marks: math.MinInt64, Timeouts: -1, Retransmits: 1,
		Completed: math.MaxInt, Failed: math.MinInt, Injected: 3}
	extremes.Stats = metrics.StatsOf(extremes.Records)
	results = append(results,
		extremes,
		CellResult{SchemaVersion: ResultSchemaVersion, Cell: testCell(), Failed: 60, Injected: 60},
		CellResult{Records: []metrics.FCTRecord{}},
		CellResult{},
	)
	var seeds [][]byte
	for i, r := range results {
		b, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		series := i == 2
		for _, key := range []string{`"queue_samples":`, `"goodput":`} {
			if bytes.Contains(b, []byte(key)) != series {
				t.Fatalf("result %d (sampled: %t): %s in its bytes is %t", i, series, key, !series)
			}
		}
		seeds = append(seeds, b)
	}
	return results, seeds
}

// TestDecodeCellResultRejects pins what the record parser's cut must not
// get wrong: a "records" that encoding/json would read differently is an
// error, and one nested below the top level is not the record stream.
func TestDecodeCellResultRejects(t *testing.T) {
	const recs = `[{"size":1,"fct_ns":2}]`
	for _, tc := range []struct {
		data   string
		accept bool
	}{
		{`{"records":` + recs + `}`, true},
		{`{"cell":{"scheme":{"label":"x\"records\":["},"records":` + recs + `},"records":null}`, true},
		{`{"records":` + recs + `,"records":null}`, false},
		{`{"records":null,"Records":` + recs + `}`, false},
		{`{"records":null,"RECORDS":null}`, false},
		{`{"drops":1}`, false},
		{`{"records": ` + recs + `}`, false},
		{`{"records":` + recs + ``, false},
		{`["records":` + recs + `]`, false},
		{`{"records":` + recs + `}{}`, false},
		{`{"records":[{"size":1,"fct_ns":2,"query":false}]}`, false},
	} {
		if got := agreesWithJSON(t, []byte(tc.data)); got != tc.accept {
			t.Errorf("%s: accepted %v, want %v", tc.data, got, tc.accept)
		}
	}
}

// FuzzDecodeCellResult searches for bytes on which the hand-parsed decode
// and encoding/json part ways: whenever DecodeCellResult succeeds,
// json.Unmarshal must succeed with a deeply equal result. Every seed must
// decode, to the value it was encoded from.
func FuzzDecodeCellResult(f *testing.F) {
	results, seeds := decodeSeeds(f)
	for i, b := range seeds {
		got, err := DecodeCellResult(b)
		if err != nil {
			f.Fatalf("seed rejected: %v\n%.300s", err, b)
		}
		if !reflect.DeepEqual(got, results[i]) {
			f.Fatalf("round trip of\n%.300s\ngot  %+v\nwant %+v", b, got, results[i])
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agreesWithJSON(t, data)
	})
}
