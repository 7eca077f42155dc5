package tune

import (
	"context"
	"encoding/json"
	"testing"
)

// smallSpecJSON is the determinism tests' real-simulator spec: small
// enough to run under -race in CI, real enough to exercise the whole
// loop (RTT variation, two seeds pooled, hill climbing on the live
// objective).
const smallSpecJSON = `{
	"sweep": {"flows": 40, "loads": [0.5], "seeds": [1, 2]},
	"searcher": "hillclimb",
	"budget": 4,
	"restarts": 1,
	"seed": 11,
	"space": {"dims": [
		{"name": "ins_target_us", "min": 25, "max": 800, "default": 200},
		{"name": "pst_target_us", "min": 5, "max": 340, "default": 85}
	]}
}`

// TestTuneResultByteIdentical is the determinism property test: the full
// Result from the same (spec, seed) is byte-identical across two runs
// and across Parallel=1 vs Parallel=8 — same shape of guarantee as
// TestShardedByteIdenticalToSerial, one layer up.
func TestTuneResultByteIdentical(t *testing.T) {
	encode := func(parallel int) []byte {
		spec, err := ParseSpec([]byte(smallSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), spec, Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := encode(1)
	again := encode(1)
	wide := encode(8)
	if d := firstDiff(serial, again); d >= 0 {
		t.Fatalf("two serial runs diverge at byte %d:\n%s", d, window(serial, again, d))
	}
	if d := firstDiff(serial, wide); d >= 0 {
		t.Fatalf("Parallel=1 vs Parallel=8 diverge at byte %d:\n%s", d, window(serial, wide, d))
	}
	var res Result
	if err := json.Unmarshal(serial, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) < 2 || res.Evals[0].Index != 0 {
		t.Fatalf("history malformed: %+v", res.Evals)
	}
	if res.Best.Score > res.Default.Score {
		t.Errorf("best %v worse than the always-evaluated anchor %v", res.Best.Score, res.Default.Score)
	}
}

// firstDiff returns the first differing byte offset, or -1 when equal.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// window renders the bytes around a divergence for the failure message.
func window(a, b []byte, at int) string {
	clip := func(s []byte) string {
		lo, hi := at-40, at+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(s) {
			hi = len(s)
		}
		return string(s[lo:hi])
	}
	return "a: …" + clip(a) + "…\nb: …" + clip(b) + "…"
}
