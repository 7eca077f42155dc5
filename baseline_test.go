package main_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"ecnsharp/internal/bench"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/trace"
)

// update makes a baseline test rewrite its committed file instead of
// comparing against it — the one spelling every golden in the tree is
// refreshed by:
//
//	go test -run TestAllocBaseline -update .
var update = flag.Bool("update", false, "rewrite the committed baseline the selected test checks (ESCAPES_baseline.json, BENCH_runtime.json, BENCH_scale.json, testdata/result_digests.json) instead of comparing against it")

// hosts100k adds the 100k-host tier to a plain run of TestScaleBaseline and
// of BenchmarkScaleCell; CI's bench job sets it for the test, go test ./...
// and the whole-tree benchmark smoke leave it off.
var hosts100k = flag.Bool("hosts100k", false, "also run the 100k-host tier (both shapes) of TestScaleBaseline (~4.5 min) and BenchmarkScaleCell")

// bytesTolerance is the relative growth bytes/op and bytes/host may show
// over the baseline: size classes and map growth make bytes nearly, not
// exactly, reproducible. Allocation, event and flow counts are exact.
const bytesTolerance = 0.10

const (
	allocBaselineFile = "BENCH_runtime.json"
	scaleBaselineFile = "BENCH_scale.json"
)

// readBaseline decodes a committed baseline file into v.
func readBaseline(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, v)
	}
	if err != nil {
		t.Fatalf("%s: %v (generate with go test -run %s -update .)", path, err, t.Name())
	}
}

// writeBaseline rewrites a committed baseline file from v.
func writeBaseline(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// sortedKeys returns the union of both maps' keys in order, so a comparison
// visits every entry either side knows and reports in a stable order.
func sortedKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// allocSuite is the runtime benchmark suite (the bodies `go test -bench`
// runs through each package's bench_test.go) with the fixed iteration count
// each is measured at: a count, not a duration, so the gate reads no clock
// and measures the same work on every machine. The four kernels amortize
// their engine's and pool's growth to zero over 2^22 operations; the three
// whole-stack bodies build a fresh network per op, and FlapStorm's map
// growth follows per-process hash seeds (±2 allocations an op around
// 4422.9), so it takes 64 ops to settle on one integer. DecodeCellResult
// and both StoreHit bodies allocate the same on every op, and 1,024 ops
// keep each one's collector-off heap under 20 MB; KeySweep does too, at
// ≈100 KB an op, so it runs 128.
var allocSuite = []struct {
	name  string
	fn    func(*testing.B)
	iters int
}{
	{"ScheduleAndRun", bench.ScheduleAndRun, 1 << 22},
	{"NestedAfter", bench.NestedAfter, 1 << 22},
	{"TimerChurn", bench.TimerChurn, 1 << 22},
	{"EgressFIFO", bench.EgressFIFO, 1 << 22},
	{"BulkTransfer", bench.BulkTransfer, 32},
	{"IncastBurst", bench.IncastBurst, 32},
	{"FlapStorm", bench.FlapStorm, 64},
	{"DecodeCellResult", bench.DecodeCellResult, 1 << 10},
	{"KeySweep", bench.KeySweep, 1 << 7},
	{"StoreHit/prior", bench.StoreHit(true), 1 << 10},
	{"StoreHit/verify", bench.StoreHit(false), 1 << 10},
}

// allocResult is one benchmark's entry in BENCH_runtime.json: what does
// not depend on the machine. ns/op is `go test -bench`'s to print.
type allocResult struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// allocReport is the schema of BENCH_runtime.json.
type allocReport struct {
	Note       string                 `json:"note"`
	Benchmarks map[string]allocResult `json:"benchmarks"`
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// measureAllocs runs every body of the suite for its fixed iteration count
// (the documented -benchtime Nx form) and returns allocations and bytes per
// op. The collector is off and one P runs, so that only the bodies' own
// allocations are counted: with the collector on and two Ps the same bodies
// read 0.1–1.5 allocs/op higher, by an amount that differs between a test
// binary and a CLI (sync.Pool caches are per P and emptied every cycle).
// Without that, BulkTransfer and IncastBurst repeat to within two
// allocations a run.
func measureAllocs(t *testing.T) map[string]allocResult {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	got := make(map[string]allocResult, len(allocSuite))
	for _, s := range allocSuite {
		if err := benchtime.Set(fmt.Sprintf("%dx", s.iters)); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(s.fn)
		if r.N != s.iters {
			t.Fatalf("%s ran %d iterations, want %d (did the body fail?)", s.name, r.N, s.iters)
		}
		// Nearest, not testing's floor: FlapStorm's mean sits on an integer.
		n := uint64(r.N)
		m := allocResult{AllocsPerOp: int64((r.MemAllocs + n/2) / n), BytesPerOp: r.AllocedBytesPerOp()}
		got[s.name] = m
		t.Logf("%-16s %8d allocs/op %10d B/op (%d allocs over %d iters)", s.name, m.AllocsPerOp, m.BytesPerOp, r.MemAllocs, r.N)
	}
	return got
}

// compareAllocs returns one line per benchmark that regressed against base:
// allocs/op may not exceed the baseline at all, bytes/op by more than
// bytesTolerance, and both sides must know the same benchmarks.
func compareAllocs(base, got map[string]allocResult) []string {
	var failures []string
	for _, name := range sortedKeys(base, got) {
		want, inBase := base[name]
		m, measured := got[name]
		switch {
		case !measured:
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", name))
		case !inBase:
			failures = append(failures, fmt.Sprintf("%s: measured but not in baseline", name))
		default:
			if m.AllocsPerOp > want.AllocsPerOp {
				failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d (allocation counts are exact)",
					name, m.AllocsPerOp, want.AllocsPerOp))
			}
			if float64(m.BytesPerOp) > float64(want.BytesPerOp)*(1+bytesTolerance) {
				failures = append(failures, fmt.Sprintf("%s: %d B/op, baseline %d (> %.0f%% tolerance)",
					name, m.BytesPerOp, want.BytesPerOp, 100*bytesTolerance))
			}
		}
	}
	return failures
}

// TestAllocBaseline pins the runtime suite's allocs/op and bytes/op to the
// committed BENCH_runtime.json. Fewer allocations pass but are logged so the
// baseline gets refreshed:
//
//	go test -run TestAllocBaseline -update .
func TestAllocBaseline(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race runtime allocates on the measured paths (its sync.Pool drops Puts at random): allocation counts are the uninstrumented build's")
	}
	got := measureAllocs(t)
	if *update {
		writeBaseline(t, allocBaselineFile, allocReport{
			Note: "Regenerate with: go test -run TestAllocBaseline -update . " +
				"(see README.md; allocation counts and bytes only: go test -bench prints ns/op, benchmark/ measures speed)",
			Benchmarks: got,
		})
		return
	}
	var base allocReport
	readBaseline(t, allocBaselineFile, &base)
	for _, f := range compareAllocs(base.Benchmarks, got) {
		t.Error(f)
	}
	for name, m := range got {
		if want := base.Benchmarks[name]; m.AllocsPerOp < want.AllocsPerOp {
			t.Logf("%s improved to %d allocs/op (baseline %d); refresh the baseline", name, m.AllocsPerOp, want.AllocsPerOp)
		}
	}
}

// scaleResult is one (shape, hosts, shards) cell of BENCH_scale.json: what
// the cell simulated and what it keeps in memory, both independent of the
// machine; the run's counts (sim.RunReport: windows, handoffs, drains,
// event-queue refills and moves, marks by kind), drops and packet pool gets
// (RunResult.Report's pools, summed over domains), independent of the worker count
// too; and the pool news, which depend on it: the pools of one worker group
// share a free list. How fast it ran is BenchmarkScaleCell's and
// benchmark/'s to say.
type scaleResult struct {
	Hosts          int                                 `json:"hosts"`
	Shards         int                                 `json:"shards"`
	Events         uint64                              `json:"events"`
	Windows        uint64                              `json:"windows"`
	HandoffMsgs    uint64                              `json:"handoff_msgs"`
	HandoffDrains  uint64                              `json:"handoff_drains"`
	EmptyDrains    uint64                              `json:"empty_drains"`
	Refills        uint64                              `json:"refills"`
	RadixMoves     uint64                              `json:"radix_moves"`
	MarkKinds      [trace.MarkProbabilistic + 1]uint64 `json:"mark_kinds"`
	Drops          int64                               `json:"drops"`
	BytesPerHost   float64                             `json:"bytes_per_host"`
	CompletedFlows int                                 `json:"completed_flows"`
	PoolGets       int64                               `json:"pool_gets"`
	PoolNews       int64                               `json:"pool_news"`
}

// counts is the part of a scaleResult the gate compares exactly and
// requires equal at every worker count.
func (r scaleResult) counts() string {
	return fmt.Sprintf("%d events, %d windows, %d handoff messages, %d handoff drains, %d empty drains, %d refills, %d radix moves, marks by kind %v, %d drops, %d completed flows and %d pool gets",
		r.Events, r.Windows, r.HandoffMsgs, r.HandoffDrains, r.EmptyDrains, r.Refills, r.RadixMoves, r.MarkKinds, r.Drops, r.CompletedFlows, r.PoolGets)
}

// scaleReport is the schema of BENCH_scale.json.
type scaleReport struct {
	Note  string                 `json:"note"`
	Cells map[string]scaleResult `json:"cells"`
}

// scaleWorkers are the worker counts every tier is measured at.
var scaleWorkers = []int{1, 4}

// scaleShape is one kind of traffic every tier runs: its cells' key prefix
// and the run it builds for a tier and a worker count.
type scaleShape struct {
	prefix string
	config func(experiments.ScaleCell, int) experiments.RunConfig
}

// scaleShapes are ScaleCellConfig's synthetic cell and paperScaleCell's
// paper-shaped one.
var scaleShapes = []scaleShape{
	{"", experiments.ScaleCellConfig},
	{"paper/", paperScaleCell},
}

// paperScaleCell is the paper-shaped run for one tier: the §5.3 leaf-spine
// cell a sweep expands for load 0.6 (websearch Poisson arrivals over uniform
// host pairs, ECN♯ derived from a 70 µs, 3× RTT variation that every flow's
// base RTT is drawn from), with one flow per 8 hosts, on the tier's fabric.
// Unlike ScaleCellConfig's, its queues build and mark persistently.
func paperScaleCell(c experiments.ScaleCell, shards int) experiments.RunConfig {
	spec, err := experiments.ParseSweepSpec(fmt.Appendf(nil,
		`{"topo":"leafspine","loads":[0.6],"flows":%d,"shards":%d}`, c.Hosts/8, shards))
	if err != nil {
		panic(err)
	}
	cfg, err := spec.Cells()[0].RunConfig()
	if err != nil {
		panic(err)
	}
	cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = c.Spines, c.Leaves, c.HostsPerLeaf
	return cfg
}

func scaleKey(shape scaleShape, hosts, shards int) string {
	return fmt.Sprintf("%shosts=%d/shards=%d", shape.prefix, hosts, shards)
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureScaleCell runs one cell. Memory is the live heap the finished run
// still holds — the fabric plus flow bookkeeping, not transient garbage —
// over what the test binary held before it, divided by the host count.
func measureScaleCell(t *testing.T, shape scaleShape, cell experiments.ScaleCell, shards int) scaleResult {
	t.Helper()
	before := liveHeap()
	res := experiments.Run(shape.config(cell, shards))
	after := liveHeap()
	out := scaleResult{
		Hosts:          cell.Hosts,
		Shards:         shards,
		Events:         res.Net.Shard.Processed(),
		Windows:        res.Report.Windows,
		HandoffMsgs:    res.Report.HandoffMsgs,
		HandoffDrains:  res.Report.HandoffDrains,
		EmptyDrains:    res.Report.EmptyDrains,
		Refills:        res.Report.Refills,
		RadixMoves:     res.Report.RadixMoves,
		MarkKinds:      res.Report.MarkKinds,
		Drops:          res.Drops,
		BytesPerHost:   float64(after-before) / float64(cell.Hosts),
		CompletedFlows: res.Completed,
	}
	for _, c := range res.Report.Pools {
		out.PoolGets += c.Gets
		out.PoolNews += c.News
	}
	if res.Completed != res.Injected {
		t.Errorf("%s completed %d/%d flows", scaleKey(shape, cell.Hosts, shards), res.Completed, res.Injected)
	}
	t.Logf("%-30s %10d events %6d windows %8d handoffs %8d drains %8d empty %8d refills %9d moves %v marks %6d drops %8.0f B/host %8d flows %8d gets %7d news",
		scaleKey(shape, cell.Hosts, shards), out.Events, out.Windows, out.HandoffMsgs, out.HandoffDrains, out.EmptyDrains, out.Refills, out.RadixMoves,
		out.MarkKinds, out.Drops, out.BytesPerHost, out.CompletedFlows, out.PoolGets, out.PoolNews)
	return out
}

// compareScale returns one line per cell that drifted from base: the counts
// and the pool news must match, bytes/host may not grow beyond
// bytesTolerance, every measured cell must be recorded, and every recorded
// cell of a tier that ran (those up to maxHosts) must have been measured.
func compareScale(base, got map[string]scaleResult, maxHosts int) []string {
	var failures []string
	for _, k := range sortedKeys(base, got) {
		want, inBase := base[k]
		m, measured := got[k]
		switch {
		case !measured:
			if want.Hosts <= maxHosts {
				failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", k))
			}
		case !inBase:
			failures = append(failures, fmt.Sprintf("%s: measured but not in baseline", k))
		default:
			if m.counts() != want.counts() {
				failures = append(failures, fmt.Sprintf("%s: %s, baseline %s (the cell is deterministic; a drift means the simulation or its windowing changed)",
					k, m.counts(), want.counts()))
			}
			if m.PoolNews != want.PoolNews {
				failures = append(failures, fmt.Sprintf("%s: %d pool news, baseline %d (deterministic at a given worker count; a drift means the packet lifetimes or the free lists changed)",
					k, m.PoolNews, want.PoolNews))
			}
			if m.BytesPerHost > want.BytesPerHost*(1+bytesTolerance) {
				failures = append(failures, fmt.Sprintf("%s: %.0f B/host, baseline %.0f (+%.0f%% > %.0f%% tolerance)",
					k, m.BytesPerHost, want.BytesPerHost, 100*(m.BytesPerHost/want.BytesPerHost-1), 100*bytesTolerance))
			}
		}
	}
	return failures
}

// TestScaleBaseline pins the scale cells (experiments.ScaleCellConfig and
// paperScaleCell at 1 and 4 workers) to the committed
// BENCH_scale.json: the 1k-host tier always, the 10k tier unless -short (~10
// s for both tiers, ~9 of it the paper-shaped cells), the 100k tier (~4.5
// min, ~4 of it the paper-shaped cells' 242 M events) only with -hosts100k
// or when refreshing, which rewrites every tier:
//
//	go test -run TestScaleBaseline -hosts100k .
//	go test -run TestScaleBaseline -update .
func TestScaleBaseline(t *testing.T) {
	maxHosts := 10_240
	switch {
	case *update || *hosts100k:
		maxHosts = 100_000
	case testing.Short():
		maxHosts = 1_024
	}
	got := make(map[string]scaleResult)
	for _, cell := range experiments.ScaleCells() {
		if cell.Hosts > maxHosts {
			continue
		}
		for _, shape := range scaleShapes {
			for _, w := range scaleWorkers {
				got[scaleKey(shape, cell.Hosts, w)] = measureScaleCell(t, shape, cell, w)
			}
			// Every count but the pool news is worker-independent: each
			// worker count must reproduce the first's.
			first := got[scaleKey(shape, cell.Hosts, scaleWorkers[0])]
			for _, w := range scaleWorkers[1:] {
				if c := got[scaleKey(shape, cell.Hosts, w)]; c.counts() != first.counts() {
					t.Errorf("%shosts=%d: %d workers ran %s, %d workers %s", shape.prefix, cell.Hosts, w, c.counts(), scaleWorkers[0], first.counts())
				}
			}
		}
	}
	if *update {
		writeBaseline(t, scaleBaselineFile, scaleReport{
			Note: "Regenerate with: go test -run TestScaleBaseline -update . " +
				"(see EXPERIMENTS.md; event and flow counts are deterministic, bytes/host nearly so; " +
				"go test -bench BenchmarkScaleCell prints speed, benchmark/ measures it)",
			Cells: got,
		})
		return
	}
	var base scaleReport
	readBaseline(t, scaleBaselineFile, &base)
	for _, f := range compareScale(base.Cells, got, maxHosts) {
		t.Error(f)
	}
}

// BenchmarkScaleCell runs the cells TestScaleBaseline pins at 1, 2 and 4
// workers, one sub-benchmark per (shape, tier, worker count), and reports
// events/s beside ns/op; the sharded speedup of a tier is the ratio of its
// shards=1 line to another (a run uses at most GOMAXPROCS workers, so on 2
// CPUs the shards=4 line runs two):
//
//	go test -run '^$' -bench 'BenchmarkScaleCell/hosts=1024/' .
//	go test -run '^$' -bench 'BenchmarkScaleCell/paper/hosts=10240/' .
//
// The 100k tier runs only with -hosts100k, as in TestScaleBaseline: the
// synthetic cell takes 10–20 s an iteration, the paper-shaped one minutes,
// so a whole-tree `-bench . -benchtime 1x` smoke would not finish without
// the gate. Paired, noise-controlled speed is benchmark/'s to measure.
//
//	go test -run '^$' -bench 'BenchmarkScaleCell/hosts=100000/shards=1$' -hosts100k .
func BenchmarkScaleCell(b *testing.B) {
	for _, shape := range scaleShapes {
		for _, cell := range experiments.ScaleCells() {
			if cell.Hosts >= 100_000 && !*hosts100k {
				continue
			}
			for _, w := range []int{1, 2, 4} {
				b.Run(scaleKey(shape, cell.Hosts, w), func(b *testing.B) {
					var events uint64
					for i := 0; i < b.N; i++ {
						events += experiments.Run(shape.config(cell, w)).Net.Shard.Processed()
					}
					b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
				})
			}
		}
	}
}

// doctored returns a copy of m with edit applied to the entry at key (the
// zero value if there is none).
func doctored[V any](m map[string]V, key string, edit func(*V)) map[string]V {
	out := maps.Clone(m)
	v := out[key]
	edit(&v)
	out[key] = v
	return out
}

// TestBaselineGatesDetectRegressions proves both comparisons fail, naming
// the benchmark or cell, when the baseline sits just below the measurement
// — as TestEscapeGateDetectsNewEscape does for escapes. The committed
// numbers stand in for the measurement, so this runs under -race too.
func TestBaselineGatesDetectRegressions(t *testing.T) {
	expect := func(failures []string, wants ...string) {
		t.Helper()
		if len(failures) != 1 {
			t.Errorf("want exactly one failure mentioning %q, got %q", wants, failures)
			return
		}
		for _, w := range wants {
			if !strings.Contains(failures[0], w) {
				t.Errorf("failure %q does not mention %q", failures[0], w)
			}
		}
	}

	var allocs allocReport
	readBaseline(t, allocBaselineFile, &allocs)
	got := allocs.Benchmarks
	if f := compareAllocs(got, got); len(f) != 0 {
		t.Fatalf("baseline does not pass against itself: %q", f)
	}
	expect(compareAllocs(doctored(got, "BulkTransfer", func(r *allocResult) { r.AllocsPerOp-- }), got),
		"BulkTransfer", "allocs/op")
	expect(compareAllocs(doctored(got, "FlapStorm", func(r *allocResult) { r.BytesPerOp = r.BytesPerOp * 8 / 10 }), got),
		"FlapStorm", "B/op")
	phantom := doctored(got, "Phantom", func(*allocResult) {})
	expect(compareAllocs(phantom, got), "Phantom", "in baseline but not measured")
	expect(compareAllocs(got, phantom), "Phantom", "measured but not in baseline")

	var scale scaleReport
	readBaseline(t, scaleBaselineFile, &scale)
	cells := scale.Cells
	const all = 100_000
	if f := compareScale(cells, cells, all); len(f) != 0 {
		t.Fatalf("baseline does not pass against itself: %q", f)
	}
	const cell = "hosts=1024/shards=4"
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.Events-- }), cells, all), cell, "events")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.Windows++ }), cells, all), cell, "windows")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.HandoffMsgs-- }), cells, all), cell, "handoff messages")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.HandoffDrains++ }), cells, all), cell, "handoff drains")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.EmptyDrains-- }), cells, all), cell, "empty drains")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.Refills++ }), cells, all), cell, "refills")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.RadixMoves-- }), cells, all), cell, "radix moves")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.MarkKinds[2]++ }), cells, all), cell, "marks by kind")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.Drops++ }), cells, all), cell, "drops")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.CompletedFlows-- }), cells, all), cell, "completed flows")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.PoolGets-- }), cells, all), cell, "pool gets")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.PoolNews++ }), cells, all), cell, "pool news")
	expect(compareScale(doctored(cells, cell, func(r *scaleResult) { r.BytesPerHost *= 0.8 }), cells, all), cell, "B/host")
	const extra = "hosts=1024/shards=2"
	unrecorded := doctored(cells, extra, func(r *scaleResult) { r.Hosts = 1_024 })
	expect(compareScale(unrecorded, cells, all), extra, "in baseline but not measured")
	expect(compareScale(cells, unrecorded, all), extra, "measured but not in baseline")
	// The recorded cells of a tier the run skipped are not failures.
	small := maps.Clone(cells)
	maps.DeleteFunc(small, func(_ string, r scaleResult) bool { return r.Hosts == 100_000 })
	if f := compareScale(cells, small, 10_240); len(small) == len(cells) || len(f) != 0 {
		t.Errorf("cells of a tier that did not run were reported (%d of %d cells measured): %q", len(small), len(cells), f)
	}
}
