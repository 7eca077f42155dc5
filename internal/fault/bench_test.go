package fault_test

import (
	"testing"

	"ecnsharp/internal/bench"
)

// BenchmarkFlapStorm wraps the shared bench body (see internal/bench) so
// `go test -bench` here and the root package's TestAllocBaseline measure
// the same code: 100 flaps on a 1024-host fabric's spine uplink while
// cross-leaf flows recover through RTO and ECMP re-resolution.
func BenchmarkFlapStorm(b *testing.B) { bench.FlapStorm(b) }
