package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecnsharp/internal/experiments"
)

// scaleResult is one (hosts, shards) cell of BENCH_scale.json: what the cell
// simulated and what it keeps in memory, both independent of the machine.
// How fast it ran is printed, not recorded — benchmark/ measures speed.
type scaleResult struct {
	Hosts          int     `json:"hosts"`
	Shards         int     `json:"shards"`
	Events         uint64  `json:"events"`
	BytesPerHost   float64 `json:"bytes_per_host"`
	CompletedFlows int     `json:"completed_flows"`
}

// scaleReport is the schema of BENCH_scale.json.
type scaleReport struct {
	Note  string                 `json:"note"`
	Cells map[string]scaleResult `json:"cells"`
}

func scaleKey(hosts, shards int) string {
	return fmt.Sprintf("hosts=%d/shards=%d", hosts, shards)
}

// parseIntList parses "1024,10240" into ints.
func parseIntList(s, flagName string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -%s entry %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// runScaleCell executes one benchmark cell and measures it. Memory is the
// post-run live heap after a forced GC divided by the host count — the
// steady-state footprint of the fabric plus flow bookkeeping, not transient
// garbage. The second result is the run's wall-clock seconds, for the
// console only.
func runScaleCell(cell experiments.ScaleCell, shards int) (scaleResult, float64) {
	cfg := experiments.ScaleCellConfig(cell, shards)
	start := time.Now() //lint:allow wallclock -- measures real benchmark runtime for the console report
	res := experiments.Run(cfg)
	wall := time.Since(start).Seconds() //lint:allow wallclock -- measures real benchmark runtime for the console report

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out := scaleResult{
		Hosts:          cell.Hosts,
		Shards:         shards,
		Events:         res.Net.Shard.Processed(),
		BytesPerHost:   float64(ms.HeapAlloc) / float64(cell.Hosts),
		CompletedFlows: res.Completed,
	}
	if res.Completed != res.Injected {
		fmt.Fprintf(os.Stderr, "warning: %s completed %d/%d flows\n",
			scaleKey(cell.Hosts, shards), res.Completed, res.Injected)
	}
	return out, wall
}

// runScaleSuite measures every (hosts, shards) cell, writes the report to
// out, and (when baseline is non-empty) gates against it: the event and
// completed-flow counts must match and bytes/host may not grow beyond tol.
// Events/sec per cell and the 4-worker speedup per tier are printed as
// information.
func runScaleSuite(out string, hostTiers, shardCounts []int, baseline string, tol float64) error {
	rep := scaleReport{
		Note: "Regenerate with: go run ./cmd/ecnsharp-bench -scalejson BENCH_scale.json " +
			"-scalehosts 1024,10240,100000 -scaleshards 1,4 (see EXPERIMENTS.md; event and flow " +
			"counts are deterministic, bytes/host nearly so; speed is measured by benchmark/)",
		Cells: make(map[string]scaleResult),
	}
	for _, hosts := range hostTiers {
		cell, err := experiments.ScaleCellByHosts(hosts)
		if err != nil {
			return err
		}
		walls := make(map[int]float64, len(shardCounts))
		for _, shards := range shardCounts {
			if shards < 1 {
				return fmt.Errorf("-scaleshards entries must be >= 1 (got %d)", shards)
			}
			r, wall := runScaleCell(cell, shards)
			rep.Cells[scaleKey(hosts, shards)] = r
			walls[shards] = wall
			fmt.Printf("%-24s %12.0f events/s %10.2f s wall %10.0f B/host (%d events)\n",
				scaleKey(hosts, shards), float64(r.Events)/wall, wall, r.BytesPerHost, r.Events)
		}
		if walls[1] > 0 && walls[4] > 0 {
			fmt.Printf("hosts=%d: shards=4 speedup %.2fx over shards=1 (on %d CPUs; informational)\n",
				hosts, walls[1]/walls[4], runtime.NumCPU())
		}
	}

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
	return compareScaleBaseline(rep, baseline, tol)
}

// compareScaleBaseline gates the fresh report against the committed one.
func compareScaleBaseline(rep scaleReport, baseline string, tol float64) error {
	buf, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base scaleReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baseline, err)
	}
	var failures []string
	keys := make([]string, 0, len(base.Cells))
	for k := range base.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want := base.Cells[k]
		got, ok := rep.Cells[k]
		if !ok {
			continue // a smoke run measures a subset of the baseline cells
		}
		if limit := want.BytesPerHost * (1 + tol); got.BytesPerHost > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f B/host, baseline %.0f (+%.0f%% > %.0f%% tolerance)",
				k, got.BytesPerHost, want.BytesPerHost, 100*(got.BytesPerHost/want.BytesPerHost-1), 100*tol))
		}
		if got.Events != want.Events || got.CompletedFlows != want.CompletedFlows {
			failures = append(failures, fmt.Sprintf("%s: %d events and %d completed flows, baseline %d and %d (the cell is deterministic; a drift means the simulation changed)",
				k, got.Events, got.CompletedFlows, want.Events, want.CompletedFlows))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		return fmt.Errorf("%d scale regression(s) against %s", len(failures), baseline)
	}
	fmt.Printf("all measured cells within tolerance of %s\n", baseline)
	return nil
}
