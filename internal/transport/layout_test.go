package transport_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"ecnsharp/internal/transport"
)

// TestEndpointSizes pins the per-flow footprint: every flow holds one
// Sender and one Receiver for the whole run, so at 100k flows a grown
// field costs a size class per endpoint.
func TestEndpointSizes(t *testing.T) {
	if got := unsafe.Sizeof(transport.Sender{}); got > 416 {
		t.Errorf("Sender is %d bytes, want <= 416", got)
	}
	if got := unsafe.Sizeof(transport.Receiver{}); got > 240 {
		t.Errorf("Receiver is %d bytes, want <= 240", got)
	}
}

// fusedOp matches arm64's fused multiply-add instructions.
var fusedOp = regexp.MustCompile(`\bF(N?)M(ADD|SUB)D\b`)

// TestNoFusedMultiplyAdd compiles the package for arm64 and fails on any
// fused multiply-add. Go may fuse x*y + z into one instruction with a
// single rounding on arm64 (not on amd64), which would make the bytes of
// a run depend on GOARCH; an explicit float64(x*y) forbids the fusion.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the arm64 assembly listing in -short mode")
	}
	cmd := exec.Command("go", "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S: %v\n%s", err, out)
	}
	// The compiler replays cached listings, so a cached build prints them
	// too; no listing means the flags broke and the check would pass
	// vacuously.
	if !strings.Contains(string(out), "transport.(*Sender).onAck STEXT") {
		t.Fatalf("no assembly listing for (*Sender).onAck in %d bytes of output", len(out))
	}
	for _, line := range strings.Split(string(out), "\n") {
		if fusedOp.MatchString(line) {
			t.Errorf("fused multiply-add: %s", strings.TrimSpace(line))
		}
	}
}
