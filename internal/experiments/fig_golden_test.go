package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFigGolden = flag.Bool("update-fig-golden", false, "rewrite testdata/fig_tables_smoke.golden")

// TestFigTablesGolden pins the rendered tables of every figure built on the
// two named shapes (the testbed star and the 128-host leaf-spine) at
// SmokeScale, byte for byte. A refactor of the figure code or of the
// builder/executor underneath it must leave this file untouched; regenerate
// it only for a change that is meant to move the paper's numbers.
func TestFigTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven smoke-scale figures (~12 s)")
	}
	var got bytes.Buffer
	for _, id := range []string{"fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig12"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range e.Run(SmokeScale()) {
			got.WriteString(tb.String())
			got.WriteByte('\n')
		}
	}

	golden := filepath.Join("testdata", "fig_tables_smoke.golden")
	if *updateFigGolden {
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
		t.Fatalf("%v (run `go test ./internal/experiments -run TestFigTablesGolden -update-fig-golden` to regenerate)", err)
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
