package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"ecnsharp/internal/bench"
	"ecnsharp/internal/experiments"
)

// benchSpec names one runtime benchmark; the order here is the order the
// suite runs and reports in.
type benchSpec struct {
	name string
	fn   func(*testing.B)
}

func benchSuite() []benchSpec {
	return []benchSpec{
		{"ScheduleAndRun", bench.ScheduleAndRun},
		{"NestedAfter", bench.NestedAfter},
		{"TimerChurn", bench.TimerChurn},
		{"EgressFIFO", bench.EgressFIFO},
		{"BulkTransfer", bench.BulkTransfer},
		{"IncastBurst", bench.IncastBurst},
		{"FlapStorm", bench.FlapStorm},
	}
}

// benchResult is one benchmark's measurement in BENCH_runtime.json.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchReport is the schema of BENCH_runtime.json.
type benchReport struct {
	Note       string                 `json:"note"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
	// WallClockSeconds records end-to-end experiment sweeps; informational
	// only (never gated: wall clock is too noisy across machines).
	WallClockSeconds map[string]float64 `json:"wall_clock_seconds"`
}

// runBenchSuite measures the runtime benchmark suite, writes it to out,
// and (when baseline is non-empty) fails on regressions beyond tol.
func runBenchSuite(out, baseline string, tol float64) error {
	rep := benchReport{
		Note: "Regenerate with: go run ./cmd/ecnsharp-bench -json BENCH_runtime.json " +
			"(see README.md; numbers are hardware-dependent, refresh on the CI runner class)",
		Benchmarks:       make(map[string]benchResult),
		WallClockSeconds: make(map[string]float64),
	}
	for _, s := range benchSuite() {
		r := testing.Benchmark(s.fn)
		rep.Benchmarks[s.name] = benchResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		fmt.Printf("%-16s %12.1f ns/op %8d allocs/op %10d B/op (%d iters)\n",
			s.name, rep.Benchmarks[s.name].NsPerOp, r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
	}

	// Wall-clock smoke sweep: the fig6 FCT-across-loads experiment at
	// smoke scale exercises the full harness (workload generation, many
	// parallel runs, metric aggregation) end to end.
	e, err := experiments.ByID("fig6")
	if err != nil {
		return err
	}
	sc := experiments.SmokeScale()
	sc.Parallel = 1
	start := time.Now() //lint:allow wallclock -- measures real harness runtime for the JSON report
	e.Run(sc)
	rep.WallClockSeconds["fig6_smoke"] = time.Since(start).Seconds() //lint:allow wallclock -- measures real harness runtime for the JSON report
	fmt.Printf("%-16s %12.2f s wall clock\n", "fig6_smoke", rep.WallClockSeconds["fig6_smoke"])

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)

	if baseline == "" {
		return nil
	}
	return compareBaseline(rep, baseline, tol)
}

// compareBaseline checks fresh results against a committed baseline:
// ns/op may be up to tol slower; allocs/op must not exceed the baseline.
// Improvements pass but are reported so the baseline gets refreshed.
func compareBaseline(rep benchReport, baseline string, tol float64) error {
	buf, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baseline, err)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := rep.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", name))
			continue
		}
		if got.AllocsPerOp > want.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d (allocation counts are exact)",
				name, got.AllocsPerOp, want.AllocsPerOp))
		} else if got.AllocsPerOp < want.AllocsPerOp {
			fmt.Printf("note: %s improved to %d allocs/op (baseline %d); refresh the baseline\n",
				name, got.AllocsPerOp, want.AllocsPerOp)
		}
		if limit := want.NsPerOp * (1 + tol); got.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op, baseline %.1f (+%.0f%% > %.0f%% tolerance)",
				name, got.NsPerOp, want.NsPerOp, 100*(got.NsPerOp/want.NsPerOp-1), 100*tol))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(failures), baseline)
	}
	fmt.Printf("all %d benchmarks within tolerance of %s\n", len(names), baseline)
	return nil
}
