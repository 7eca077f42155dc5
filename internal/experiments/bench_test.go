package experiments_test

import (
	"testing"

	"ecnsharp/internal/bench"
)

// The body lives in internal/bench so `go test -bench` and the root
// package's TestAllocBaseline gate measure identical code.

// BenchmarkDecodeCellResult measures decoding one stored 400-flow cell
// result, the cost of every result-cache hit.
func BenchmarkDecodeCellResult(b *testing.B) { bench.DecodeCellResult(b) }
