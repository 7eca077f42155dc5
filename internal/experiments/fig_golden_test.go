package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ecnsharp/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/fig_tables_smoke.golden")

// fig10Smoke and fig13Smoke keep what the registry closures discard (the
// queue traces, the structured DWRR results) so the Shape tests can assert
// on the same run the golden renders.
var (
	fig10Smoke = sync.OnceValues(func() (*Table, map[string][]metrics.QueueSample) {
		return Fig10(SmokeScale())
	})
	fig13Smoke = sync.OnceValues(func() ([]*Table, [2]Fig13Result) {
		tabs, sharp, tcn := Fig13(SmokeScale())
		return tabs, [2]Fig13Result{sharp, tcn}
	})
	smokeRuns = func() map[string]func() []*Table {
		runs := map[string]func() []*Table{}
		for _, e := range builtin() {
			runs[e.ID] = sync.OnceValue(func() []*Table { return e.Run(SmokeScale()) })
		}
		runs["fig10"] = func() []*Table { tb, _ := fig10Smoke(); return []*Table{tb} }
		runs["fig13"] = func() []*Table { tabs, _ := fig13Smoke(); return tabs }
		return runs
	}()
)

// smokeTables returns the tables of one built-in experiment at plain
// SmokeScale, run at most once per test process: the golden and every Shape
// test that needs no altered scale read the same run. The tables are shared;
// callers must not modify them.
func smokeTables(id string) []*Table { return smokeRuns[id]() }

// TestFigTablesGolden pins the rendered tables of every built-in experiment
// at SmokeScale, in registry order, byte for byte. A refactor of the figure
// code or of the builder/executor underneath it must leave this file
// untouched; regenerate it only for a change that is meant to move the
// paper's numbers.
func TestFigTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all twenty smoke-scale experiments (~20 s)")
	}
	var got bytes.Buffer
	for _, e := range builtin() {
		for _, tb := range smokeTables(e.ID) {
			got.WriteString(tb.String())
			got.WriteByte('\n')
		}
	}

	golden := filepath.Join("testdata", "fig_tables_smoke.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestFigTablesGolden -update ./internal/experiments` to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("tables diverge from golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("table output length differs from golden: got %d lines, want %d", len(gl), len(wl))
	}
}
