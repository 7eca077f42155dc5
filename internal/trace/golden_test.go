package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// goldenIncast runs a small fixed incast under ECN♯ and returns the JSONL
// event trace, filtered to mark and flow events. The scenario is fully
// deterministic (no randomness anywhere), so the bytes must be identical on
// every run — that is the property the trace format promises and this test
// pins, together with the presence of both marking regimes: persistent
// marks from the long-lived flows' standing queue (Algorithm 1) and
// instantaneous marks from the query burst.
func goldenIncast(t *testing.T) []byte {
	t.Helper()
	const receiver = 4
	net := topology.NewStar(receiver+1, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   sim.Microsecond,
			BufferBytes: 600 * 1500,
		},
		NewAQM: func(int) aqm.AQM {
			return aqm.MustNewECNSharp(core.Params{
				InsTarget:   220 * sim.Microsecond,
				PstTarget:   10 * sim.Microsecond,
				PstInterval: 240 * sim.Microsecond,
			})
		},
	})

	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	mask := trace.MaskOf(trace.ECNMark, trace.Drop, trace.FlowStart, trace.FlowFinish)
	net.AttachTracer(trace.NewFilter(w, mask, 1))

	cfg := transport.DefaultConfig()
	cfg.InitCwndSegments = 2
	// Two long-lived flows build the standing queue that triggers
	// Algorithm 1; four queries burst into it at 1.5ms.
	table := transport.NewFlowTable(6)
	for i := 0; i < 2; i++ {
		table.Launch(cfg, net.Host(i), net.Host(receiver), uint64(i+1), 1<<30, 0, false)
	}
	for i := 0; i < 4; i++ {
		table.Launch(cfg, net.Host(i), net.Host(receiver),
			uint64(100+i), 30_000, 1500*sim.Microsecond+sim.Time(i)*10*sim.Microsecond, true)
	}
	net.Shard.RunUntil(3 * sim.Millisecond)

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenIncastTrace(t *testing.T) {
	got := goldenIncast(t)

	// Same seed (here: no randomness at all) must give byte-identical output.
	if again := goldenIncast(t); !bytes.Equal(got, again) {
		t.Fatal("two identical runs produced different traces")
	}
	// Both of ECN♯'s marking regimes must appear.
	for _, kind := range []string{`"kind":"instantaneous"`, `"kind":"persistent"`} {
		if !bytes.Contains(got, []byte(kind)) {
			t.Errorf("trace contains no %s mark", kind)
		}
	}

	golden := filepath.Join("testdata", "incast_trace.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenIncastTrace -update ./internal/trace` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from golden at line %d:\n got %s\nwant %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length differs from golden: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestGoldenTraceCadence replays Algorithm 1's conservative cadence from the
// golden trace: once the burst's instantaneous marks end, the persistent
// marks on the bottleneck port resume mid-episode, and each gap to the
// previous mark tracks pst_interval/√k for k = 7..11 to within one packet
// serialization (1.2 µs at 10 Gbps) — TRACING.md's worked example.
func TestGoldenTraceCadence(t *testing.T) {
	const (
		port        = 4
		pstInterval = 240 * sim.Microsecond
		slack       = 1200 * sim.Nanosecond
	)
	data, err := os.ReadFile(filepath.Join("testdata", "incast_trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// The persistent marks that follow the first run of instantaneous ones.
	var marks []sim.Time
	sawInstantaneous := false
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var e struct {
			Ev, Kind string
			At       sim.Time
			Port     int
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		if e.Ev != "mark" || e.Port != port {
			continue
		}
		switch e.Kind {
		case "instantaneous":
			sawInstantaneous = true
		case "persistent":
			if sawInstantaneous {
				marks = append(marks, e.At)
			}
		}
	}
	const firstK, lastK = 7, 11
	if len(marks) < lastK-firstK+2 {
		t.Fatalf("%d persistent marks after the burst, want >= %d", len(marks), lastK-firstK+2)
	}
	for k := firstK; k <= lastK; k++ {
		gap := marks[k-firstK+1] - marks[k-firstK]
		sched := sim.Time(float64(pstInterval) / math.Sqrt(float64(k)))
		if d := gap - sched; d < -slack || d > slack {
			t.Errorf("k=%d: gap %v, schedule pst_interval/sqrt(k) = %v", k, gap, sched)
		}
	}
}
