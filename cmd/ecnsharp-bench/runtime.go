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

// benchResult is one benchmark's entry in BENCH_runtime.json: what does
// not depend on the machine. ns/op is printed, never recorded.
type benchResult struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// benchReport is the schema of BENCH_runtime.json.
type benchReport struct {
	Note       string                 `json:"note"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

// runBenchSuite measures the runtime benchmark suite, writes its
// allocation columns to out, and (when baseline is non-empty) fails on
// allocation regressions. Speed is printed for information only.
func runBenchSuite(out, baseline string, tol float64) error {
	rep := benchReport{
		Note: "Regenerate with: go run ./cmd/ecnsharp-bench -json BENCH_runtime.json " +
			"(see README.md; allocation counts and bytes only: benchmark/ measures speed)",
		Benchmarks: make(map[string]benchResult),
	}
	for _, s := range benchSuite() {
		r := testing.Benchmark(s.fn)
		rep.Benchmarks[s.name] = benchResult{AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
		fmt.Printf("%-16s %12.1f ns/op %8d allocs/op %10d B/op (%d iters)\n",
			s.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
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
	start := time.Now() //lint:allow wallclock -- reports real harness runtime to the operator
	e.Run(sc)
	fmt.Printf("%-16s %12.2f s wall clock\n", "fig6_smoke", time.Since(start).Seconds()) //lint:allow wallclock -- reports real harness runtime to the operator

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
// allocs/op must not exceed the baseline at all, bytes/op by more than
// tol. Fewer allocations pass but are reported so the baseline gets
// refreshed.
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
		if limit := float64(want.BytesPerOp) * (1 + tol); float64(got.BytesPerOp) > limit {
			failures = append(failures, fmt.Sprintf("%s: %d B/op, baseline %d (> %.0f%% tolerance)",
				name, got.BytesPerOp, want.BytesPerOp, 100*tol))
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
