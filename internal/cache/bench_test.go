package cache_test

import (
	"testing"

	"ecnsharp/internal/bench"
)

// The body lives in internal/bench so `go test -bench` and the root
// package's TestAllocBaseline gate measure identical code.

// BenchmarkStoreHit measures one result-cache hit on a stored 400-flow
// cell, handed the entry's bytes of an earlier hit (prior) or not (verify).
func BenchmarkStoreHit(b *testing.B) {
	b.Run("prior", bench.StoreHit(true))
	b.Run("verify", bench.StoreHit(false))
}
