package main_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches arm64's fused multiply-add instructions.
var fusedOp = regexp.MustCompile(`\bF(N?)M(ADD|SUB)D\b`)

// noFusionPackages are the packages kept free of fused multiply-adds, each
// with one function whose listing must appear: internal/transport's
// congestion control, internal/dist's samplers, which draw every flow
// size and base RTT, internal/experiments, whose traffic generator times
// fig13's probes and whose tables report Jain's index, and internal/tune,
// whose searchers draw and step the candidates and whose objectives score
// them.
var noFusionPackages = []struct{ dir, listed string }{
	{"./internal/transport/", "transport.(*Sender).onAck STEXT"},
	{"./internal/dist/", "dist.LogNormal.Sample STEXT"},
	{"./internal/experiments/", "experiments.RunConfig.FlowGen STEXT"},
	{"./internal/tune/", "tune.(*Space).Clamp STEXT"},
}

// TestNoFusedMultiplyAdd compiles each package for arm64 and fails on any
// fused multiply-add. Go may fuse x*y + z into one instruction with a
// single rounding on arm64 (not on amd64), which would make the bytes of
// a run depend on GOARCH; an explicit float64(x*y) forbids the fusion.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the arm64 assembly listings in -short mode")
	}
	for _, pkg := range noFusionPackages {
		cmd := exec.Command("go", "build", "-gcflags=-S", pkg.dir)
		cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOFLAGS=")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=arm64 go build -gcflags=-S %s: %v\n%s", pkg.dir, err, out)
		}
		// The compiler replays cached listings, so a cached build prints
		// them too; no listing means the flags broke and the check would
		// pass vacuously.
		if !strings.Contains(string(out), pkg.listed) {
			t.Fatalf("%s: no listing %q in %d bytes of output", pkg.dir, pkg.listed, len(out))
		}
		for _, line := range strings.Split(string(out), "\n") {
			if fusedOp.MatchString(line) {
				t.Errorf("%s: fused multiply-add: %s", pkg.dir, strings.TrimSpace(line))
			}
		}
	}
}
