// Benchmarks regenerating every table and figure of the paper's
// evaluation. BenchmarkExperiment/<id> runs the corresponding experiment at
// SmokeScale (so the full suite finishes in minutes) and prints the
// resulting rows once — the same rows/series the paper reports. Use
// cmd/ecnsharp-bench with -scale quick or -scale full for denser grids.
//
// The reported ns/op is the wall time of one full experiment regeneration.
package main

import (
	"fmt"
	"sync"
	"testing"

	"ecnsharp/internal/experiments"
)

var printed sync.Map

// runExperiment executes the experiment b.N times, printing its tables on
// the first run only.
func runExperiment(b *testing.B, e experiments.Experiment) {
	sc := experiments.SmokeScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(sc)
		if _, done := printed.LoadOrStore(e.ID, true); !done {
			b.StopTimer()
			for _, tb := range tables {
				fmt.Println(tb)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkExperiment regenerates every registered experiment, one
// sub-benchmark per id: `go test -bench 'BenchmarkExperiment/fig6$'` runs one.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) { runExperiment(b, e) })
	}
}
