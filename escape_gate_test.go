package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ecnsharp/internal/analysis/escapegate"
)

// escapeGateBaseline is the committed record of accepted heap escapes.
const escapeGateBaseline = "ESCAPES_baseline.json"

// escapeGatePackages are the hot-path packages built with -gcflags=-m.
var escapeGatePackages = []string{
	"./internal/sim/",
	"./internal/queue/",
	"./internal/packet/",
	"./internal/device/",
	"./internal/transport/",
}

// escapeGateFunctions is the designated hot-path list: the zero-alloc
// property of PR 5 lives in these functions, so a new heap escape in any
// of them fails the gate even when benchmarks are too noisy to notice.
// Panic-path string escapes and the pool's intentional fallback
// allocations are recorded in the baseline, not exempted wholesale.
var escapeGateFunctions = []string{
	// Engine event queue (radix heap) and scheduling.
	"internal/sim.(*Engine).alloc",
	"internal/sim.(*Engine).release",
	"internal/sim.(*Engine).push",
	"internal/sim.(*Engine).pop",
	"internal/sim.(*Engine).advance",
	"internal/sim.(*Engine).refill",
	"internal/sim.minTime",
	"internal/sim.(*Engine).remove",
	"internal/sim.(*Engine).peek",
	"internal/sim.(*Engine).schedule",
	"internal/sim.(*Engine).Schedule",
	"internal/sim.(*Engine).ScheduleArg",
	"internal/sim.(*Engine).After",
	"internal/sim.(*Engine).AfterArg",
	"internal/sim.(*Engine).Cancel",
	"internal/sim.(*Engine).Step",
	"internal/sim.(*Engine).RunChunk",
	// Cross-domain handoff send path.
	"internal/sim.(*Handoff).Send",
	// Egress queueing.
	"internal/queue.(*Egress).Enqueue",
	"internal/queue.(*Egress).Dequeue",
	"internal/queue.(*Egress).drop",
	"internal/queue.(*FIFO).Push",
	"internal/queue.(*FIFO).Pop",
	"internal/queue.(*FIFO).grow",
	// Packet pool.
	"internal/packet.(*Pool).Get",
	"internal/packet.(*Pool).Put",
	"internal/device.(*Host).AllocPacket",
	// Forwarding: a port's send / tx-done cycle with its static callbacks,
	// the switch, and a host's two ends with the flow demux.
	"internal/device.(*Port).Send",
	"internal/device.(*Port).kick",
	"internal/device.(*Port).txDone",
	"internal/device.portTxDone",
	"internal/device.Deliver",
	"internal/device.(*Switch).Receive",
	"internal/device.(*Host).Send",
	"internal/device.(*nicEntry).Receive",
	"internal/device.(*Host).Receive",
	"internal/device.(*Host).handler",
	// Transport endpoints: the per-ACK and per-segment paths and the
	// timer callbacks.
	"internal/transport.(*Sender).HandlePacket",
	"internal/transport.(*Sender).onAck",
	"internal/transport.(*Sender).sendSegment",
	"internal/transport.(*Sender).armRTO",
	"internal/transport.senderRTO",
	// The rate mode: the ACK branch, pacing, go-back-N and the rate timer.
	"internal/transport.(*Sender).onRateAck",
	"internal/transport.(*Sender).pace",
	"internal/transport.senderPace",
	"internal/transport.(*Sender).goBackN",
	"internal/transport.(*Sender).onRateTimer",
	"internal/transport.senderRateTimer",
	"internal/transport.(*Receiver).HandlePacket",
	"internal/transport.(*Receiver).sendAck",
	"internal/transport.receiverAckTimer",
}

// runEscapeAnalysis builds the hot-path packages with -gcflags=-m and
// attributes every reported heap escape to its enclosing function.
func runEscapeAnalysis(t *testing.T, pkgs []string) map[string][]string {
	t.Helper()
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	escapes := escapegate.ParseBuildOutput(string(out))
	// The compiler replays cached diagnostics, so even a fully cached
	// build prints them; silence here means the parse or the flags broke.
	if len(escapes) == 0 {
		t.Fatalf("no heap-escape diagnostics parsed from go build -gcflags=-m output (%d bytes); the gate would pass vacuously", len(out))
	}
	observed, err := escapegate.Attribute(".", escapes)
	if err != nil {
		t.Fatal(err)
	}
	return observed
}

// TestEscapeGate pins the designated hot-path functions' heap escapes to
// the committed baseline. Refresh after an intentional change with:
//
//	go test -run TestEscapeGate -update .
func TestEscapeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping compiler escape analysis in -short mode")
	}
	observed := runEscapeAnalysis(t, escapeGatePackages)

	if *update {
		b := &escapegate.Baseline{
			Version:   1,
			Packages:  escapeGatePackages,
			Functions: map[string][]string{},
		}
		for _, fn := range escapeGateFunctions {
			b.Functions[fn] = append([]string{}, observed[fn]...)
		}
		if err := b.Save(escapeGateBaseline); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d designated functions)", escapeGateBaseline, len(escapeGateFunctions))
		return
	}

	b, err := escapegate.Load(escapeGateBaseline)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestEscapeGate -update .)", err)
	}
	// The baseline must cover exactly the designated list, so editing one
	// without the other is caught.
	for _, fn := range escapeGateFunctions {
		if _, ok := b.Functions[fn]; !ok {
			t.Errorf("designated function %s missing from %s; refresh the baseline", fn, escapeGateBaseline)
		}
	}
	if len(b.Functions) != len(escapeGateFunctions) {
		t.Errorf("%s records %d functions, test designates %d; refresh the baseline", escapeGateBaseline, len(b.Functions), len(escapeGateFunctions))
	}
	for _, v := range escapegate.Check(b, observed) {
		t.Error(v)
	}
}

// TestEscapeGateDetectsNewEscape proves the gate actually fails when a
// designated function starts allocating: it compiles a scratch module
// whose hot function leaks a composite literal to the heap and checks
// that an empty baseline flags it.
func TestEscapeGateDetectsNewEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping compiler escape analysis in -short mode")
	}
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module escfix\n\ngo 1.24\n")
	writeFile("hot.go", `package escfix

// Packet mimics a pooled object.
type Packet struct{ Buf [64]byte }

var sink *Packet

// Enqueue is the designated hot function; the literal escapes.
func Enqueue(n int) {
	p := &Packet{}
	sink = p
	_ = n
}
`)
	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = dir
	// The scratch module has no dependencies, so the build works offline;
	// GOFLAGS could carry -mod flags that break it, so clear them.
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m (scratch module): %v\n%s", err, out)
	}
	escapes := escapegate.ParseBuildOutput(string(out))
	if len(escapes) == 0 {
		t.Fatalf("expected at least one escape in scratch module, got none:\n%s", out)
	}
	observed, err := escapegate.Attribute(dir, escapes)
	if err != nil {
		t.Fatal(err)
	}
	b := &escapegate.Baseline{
		Version:   1,
		Packages:  []string{"."},
		Functions: map[string][]string{"Enqueue": {}},
	}
	violations := escapegate.Check(b, observed)
	if len(violations) == 0 {
		t.Fatalf("gate did not flag the new escape; observed=%v", observed)
	}
	for _, v := range violations {
		if !strings.Contains(v, "new heap escape") {
			t.Errorf("violation missing explanation: %s", v)
		}
	}
}
