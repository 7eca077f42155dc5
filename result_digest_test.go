package main_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/fault"
	"ecnsharp/internal/tune"
)

const resultDigestFile = "testdata/result_digests.json"

// digestReport is the schema of testdata/result_digests.json: each schema
// version beside the SHA-256 of the encodings it tags.
type digestReport struct {
	Note                string            `json:"note"`
	ResultSchemaVersion string            `json:"result_schema_version"`
	Cells               map[string]string `json:"cells"`
	TuneSchemaVersion   string            `json:"tune_schema_version"`
	Tune                string            `json:"tune"`
}

// digestCells are small cells covering both topologies under every scheme,
// one tuned cell, one traced cell and one fault cell, keyed by a label. The
// fault cell carries what ecnsim -faults puts on a cell, a schedule and
// bounded RTO retries, and its schedule cuts one host off for good, so the
// flows to and from it give up on RTO exhaustion.
func digestCells(t *testing.T) map[string]experiments.Cell {
	cells := make(map[string]experiments.Cell)
	cell := func(topo, scheme, trace string) experiments.Cell {
		spec, err := experiments.ParseSweepSpec([]byte(fmt.Sprintf(
			`{"topo":%q,"scheme":%q,"loads":[0.6],"flows":40%s}`, topo, scheme, trace)))
		if err != nil {
			t.Fatal(err)
		}
		return spec.Cells()[0]
	}
	for _, topo := range []string{"star", "leafspine"} {
		for _, scheme := range []string{"ecnsharp", "red-tail", "red-avg", "codel", "tcn"} {
			cells[topo+"/"+scheme] = cell(topo, scheme, "")
		}
	}
	tuned := cells["leafspine/ecnsharp"]
	tuned.Tuned = &experiments.TunedParams{Groups: []experiments.TunedGroup{{Scope: "spine",
		Params: []experiments.TunedValue{{Name: "ins_target_us", Value: 150}}}}}
	cells["leafspine/ecnsharp/tuned"] = tuned
	cells["leafspine/ecnsharp/traced"] = cell("leafspine", "ecnsharp", `,"trace":{"events":"mark,drop,flow_finish","sample":2}`)
	cut := cells["star/ecnsharp"]
	cut.Faults = &fault.Schedule{Events: []fault.Event{{AtUS: 100, Action: fault.LinkDown, Link: "sw0-host3"}}}
	cut.Transport.MaxConsecTimeouts = 20
	cells["star/ecnsharp/faults"] = cut
	return cells
}

// digestTuneSpec is one tiny tune run: two evaluations of one 30-flow cell.
const digestTuneSpec = `{
	"sweep": {"flows": 30, "loads": [0.5], "seeds": [1]},
	"searcher": "hillclimb",
	"budget": 2,
	"seed": 7,
	"space": {"dims": [
		{"name": "ins_target_us", "min": 25, "max": 800, "default": 200},
		{"name": "pst_target_us", "min": 5, "max": 340, "default": 85}
	]}
}`

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// measureDigests runs every digest cell and the tune spec and hashes their
// encodings.
func measureDigests(t *testing.T) digestReport {
	t.Helper()
	got := digestReport{
		Note:                "Regenerate with: go test -run TestResultDigests -update . (only together with a ResultSchemaVersion bump)",
		ResultSchemaVersion: experiments.ResultSchemaVersion,
		Cells:               make(map[string]string),
		TuneSchemaVersion:   tune.ResultSchemaVersion,
	}
	for label, cell := range digestCells(t) {
		r, err := cell.Run(context.Background())
		if cell.Faults != nil && r.Failed == 0 {
			t.Errorf("%s: no flow failed", label)
		}
		if err == nil {
			var b []byte
			b, err = r.Encode()
			got.Cells[label] = digest(b)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	spec, err := tune.ParseSpec([]byte(digestTuneSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tune.Run(context.Background(), spec, tune.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got.Tune = digest(b)
	return got
}

// compareDigests returns one line per encoding that moved. A digest may
// move only together with the schema version tagging it: cached results
// and stored tune documents are keyed by that version, so bytes that change
// under an unchanged version would be served as if they were the new ones.
func compareDigests(base, got digestReport) []string {
	var failures []string
	moved := func(what, version, baseVersion, bump string) {
		if version == baseVersion {
			failures = append(failures, fmt.Sprintf("%s: encoding changed under %s; bump %s", what, version, bump))
		} else {
			failures = append(failures, fmt.Sprintf("%s: schema %s, golden %s; refresh with go test -run TestResultDigests -update .",
				what, version, baseVersion))
		}
	}
	for _, label := range sortedKeys(base.Cells, got.Cells) {
		if got.Cells[label] != base.Cells[label] {
			moved("cell "+label, got.ResultSchemaVersion, base.ResultSchemaVersion, "experiments.ResultSchemaVersion")
		}
	}
	if got.Tune != base.Tune {
		moved("tune result", got.TuneSchemaVersion, base.TuneSchemaVersion, "tune.ResultSchemaVersion")
	}
	return failures
}

// TestResultDigests pins the bytes CellResult.Encode and tune's
// Result.Encode produce for a fixed set of small runs to the schema
// versions that tag them. A change that moves a result's bytes fails here
// with "bump ResultSchemaVersion" until the version moves with it:
//
//	go test -run TestResultDigests -update .
func TestResultDigests(t *testing.T) {
	got := measureDigests(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeBaseline(t, resultDigestFile, got)
		return
	}
	var base digestReport
	readBaseline(t, resultDigestFile, &base)
	for _, f := range compareDigests(base, got) {
		t.Error(f)
	}
}

// TestResultDigestsDemandABump proves the comparison asks for a version
// bump when bytes move under the same version, and for a refresh when the
// version moved too.
func TestResultDigestsDemandABump(t *testing.T) {
	var base digestReport
	readBaseline(t, resultDigestFile, &base)
	moved := base
	moved.Cells = doctored(base.Cells, "star/ecnsharp", func(d *string) { *d = digest(nil) })
	if f := compareDigests(base, moved); len(f) != 1 || !strings.Contains(f[0], "bump experiments.ResultSchemaVersion") {
		t.Errorf("moved cell digest: %q", f)
	}
	moved.ResultSchemaVersion += "-next"
	if f := compareDigests(base, moved); len(f) != 1 || !strings.Contains(f[0], "refresh") {
		t.Errorf("moved cell digest and version: %q", f)
	}
	tuneMoved := base
	tuneMoved.Tune = digest(nil)
	if f := compareDigests(base, tuneMoved); len(f) != 1 || !strings.Contains(f[0], "bump tune.ResultSchemaVersion") {
		t.Errorf("moved tune digest: %q", f)
	}
}
