package core

import (
	"testing"

	"ecnsharp/internal/sim"
)

// BenchmarkShouldMark measures the per-packet cost of the reference ECN♯
// decision — the code a software switch would run at line rate.
func BenchmarkShouldMark(b *testing.B) {
	e := MustNewECNSharp(Params{
		InsTarget:   200 * sim.Microsecond,
		PstTarget:   85 * sim.Microsecond,
		PstInterval: 200 * sim.Microsecond,
	})
	now := 1 * sim.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += 1200 // one full-size packet at 10 Gbps
		sojourn := sim.Time((i % 300)) * sim.Microsecond
		e.ShouldMark(now, sojourn)
	}
}
