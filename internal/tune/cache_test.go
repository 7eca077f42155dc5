package tune

import (
	"context"
	"testing"

	"ecnsharp/internal/cache"
)

// TestTuneCacheIntegration is the cache-integration test: the second
// tuning of an identical spec against the warm store recomputes nothing
// (zero misses, zero puts — every cell is a disk hit) and produces the same
// result bytes. That a version bump invalidates every key is pinned where
// the key is derived (experiments.TestCellKeyDerivation).
func TestTuneCacheIntegration(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		spec, err := ParseSpec([]byte(smallSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), spec, Options{Parallel: 4, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cold := run()
	s1 := store.Stats()
	if s1.Misses == 0 || s1.Puts == 0 {
		t.Fatalf("cold run did not populate the store: %+v", s1)
	}
	if s1.Hits != 0 {
		// The memoization layer must prevent the tuner itself from
		// re-requesting a cell within one run.
		t.Errorf("cold run hit the store %d times — duplicate cell evaluations", s1.Hits)
	}

	warm := run()
	s2 := store.Stats()
	if d := s2.Misses - s1.Misses; d != 0 {
		t.Errorf("warm run missed %d times, want 0 (zero recomputation)", d)
	}
	if d := s2.Puts - s1.Puts; d != 0 {
		t.Errorf("warm run wrote %d entries, want 0", d)
	}
	if s2.Hits-s1.Hits == 0 {
		t.Error("warm run never hit the store")
	}
	if firstDiff(cold, warm) >= 0 {
		t.Error("warm result bytes differ from cold — cache-hit state leaked into Result")
	}
}
