package main_test

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-adds and -subtracts of arm64 and
// riscv64 (FMADDD, FNMSUBS, …) and of ppc64le and s390x (FMADD, …).
var fusedOp = regexp.MustCompile(`\bF(N?)M(ADD|SUB)[DS]?\b`)

// simulationRoots are the packages whose imports, with themselves, are
// the simulation-reachable packages kept free of fused multiply-adds:
// every package a cell's run, its result bytes, a figure's table or a tune
// run passes through. Among them are shardsafe's list (the packages a
// shard worker runs), internal/dist's samplers, which draw every flow size
// and base RTT, internal/metrics, which pools the statistics, and
// internal/tune, whose searchers draw and step the candidates. A package
// added to that path is gated without being named here.
var simulationRoots = []string{"./internal/experiments", "./internal/tune"}

// fusionArchs are the GOARCHes whose compiler may fuse x*y + z, each with
// the instruction it makes of testdata/fmaprobe's.
var fusionArchs = []struct{ goarch, probeOp string }{
	{"arm64", "FMADDD"},
	{"ppc64le", "FMADD"},
	{"s390x", "FMADD"},
	{"riscv64", "FMADDD"},
}

// TestNoFusedMultiplyAdd compiles the packages for every GOARCH that may
// fuse and fails on any fused multiply-add. Go may fuse x*y + z into one
// instruction with a single rounding there (not on amd64), which would make
// the bytes of a run depend on GOARCH; an explicit float64(x*y) forbids
// the fusion. One go build per GOARCH lists every package and the probe,
// whose fused x*y + z shows that the gate sees a fusion where there is one.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the assembly listings of four GOARCHes in -short mode")
	}
	const probe = "ecnsharp/testdata/fmaprobe"
	list := exec.Command("go", append([]string{"list", "-deps"}, simulationRoots...)...)
	list.Env = append(os.Environ(), "GOFLAGS=")
	listed, err := list.Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", strings.Join(simulationRoots, " "), err)
	}
	var pkgs []string
	for _, p := range strings.Fields(string(listed)) {
		if strings.HasPrefix(p, "ecnsharp/") {
			pkgs = append(pkgs, p)
		}
	}
	for _, p := range []string{
		"sim", "device", "queue", "transport", "aqm", "topology", "fault",
		"dist", "rttvar", "workload", "metrics", "tune", "experiments",
	} {
		if !slices.Contains(pkgs, "ecnsharp/internal/"+p) {
			t.Fatalf("internal/%s is not among the listed packages %v", p, pkgs)
		}
	}
	args := append([]string{"build", "-gcflags=-S", "./testdata/fmaprobe"}, pkgs...)
	for _, arch := range fusionArchs {
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOARCH="+arch.goarch, "GOFLAGS=")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go %s: %v\n%s", arch.goarch, strings.Join(args, " "), err, out)
		}
		// The compiler replays cached listings, so a cached build prints
		// them too, each under a "# <package>" line. A package without
		// one means the flags broke and its check would pass vacuously.
		listings := map[string][]string{}
		pkg := ""
		for _, line := range strings.Split(string(out), "\n") {
			if name, ok := strings.CutPrefix(line, "# "); ok {
				pkg = name
			}
			listings[pkg] = append(listings[pkg], line)
		}
		if !slices.ContainsFunc(listings[probe], func(l string) bool { return fusedOp.FindString(l) == arch.probeOp }) {
			t.Errorf("GOARCH=%s: the probe's x*y + z shows no %s", arch.goarch, arch.probeOp)
		}
		for _, p := range pkgs {
			lines := listings[p]
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, " STEXT ") }) {
				t.Fatalf("GOARCH=%s: no listing of %s in %d bytes of output", arch.goarch, p, len(out))
			}
			for _, line := range lines {
				if fusedOp.MatchString(line) {
					t.Errorf("GOARCH=%s %s: fused multiply-add: %s", arch.goarch, p, strings.TrimSpace(line))
				}
			}
		}
	}
}
