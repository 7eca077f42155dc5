package experiments

// Regression tests for the determinism invariants that the ecnlint suite
// (internal/analysis) enforces statically: rendered outputs must be
// byte-identical across repeated runs and across worker-pool widths. A
// failure here usually means map-iteration order or a wall-clock/global-RNG
// dependency leaked into an output path — re-run
// `go run ./cmd/ecnlint ./...` to find the culprit.

import (
	"strings"
	"testing"
)

// TestFig6ParallelStress: a small Figure-6 sweep rendered at Parallel=8
// is byte-identical to the serial rendering. Under `go test -race` this
// doubles as a data-race stress of the harness fan-out, and the byte
// comparison catches any submission-order or shared-state leak in the
// merge path.
func TestFig6ParallelStress(t *testing.T) {
	sc := SmokeScale()
	sc.FlowCount = 40
	sc.Seeds = []int64{1, 2} // 4 schemes x 2 seeds = 8 jobs, one per worker

	renderAll := func(parallel int) string {
		s := sc
		s.Parallel = parallel
		var b strings.Builder
		for _, tb := range Fig6(s) {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
		return b.String()
	}

	serial := renderAll(1)
	wide := renderAll(8)
	if serial != wide {
		t.Errorf("fig6 rendering differs between Parallel=1 and Parallel=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, wide)
	}
}
