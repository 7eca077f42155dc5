package transport_test

import (
	"testing"

	"ecnsharp/internal/bench"
)

// The bodies live in internal/bench so `go test -bench` and the
// root package's TestAllocBaseline gate measure identical code.

// BenchmarkBulkTransfer measures whole-stack simulation throughput: two
// 10 MB DCTCP flows through a marking switch.
func BenchmarkBulkTransfer(b *testing.B) { bench.BulkTransfer(b) }

// BenchmarkIncastBurst measures the cost of the synchronized-burst
// scenario that dominates the Figure 10/11 experiments.
func BenchmarkIncastBurst(b *testing.B) { bench.IncastBurst(b) }
