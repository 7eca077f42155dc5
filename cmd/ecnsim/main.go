// Command ecnsim runs a single simulation and prints FCT statistics —
// the quickest way to poke at the simulator from the shell.
//
// Usage:
//
//	ecnsim [flags]
//
// Examples:
//
//	ecnsim -scheme ecnsharp -workload websearch -load 0.7
//	ecnsim -scheme red-tail -workload datamining -load 0.5 -flows 500
//	ecnsim -topo leafspine -scheme codel -load 0.4
//	ecnsim -seeds 1,2,3 -parallel 3   # pooled statistics over three seeds
//	ecnsim -topo leafspine -report    # run counts as one JSON line on stderr
//	ecnsim -trace run.jsonl -trace-events mark,drop -trace-sample 10
//	ecnsim -topo leafspine -faults flaps.json -trace churn.jsonl -trace-events fault,reroute,flow_fail
//	ecnsim -spec sweep.json -parallel 4   # run a JSON sweep spec (same schema ecnsharpd serves)
//	ecnsim -tune tune.json -parallel 4 -tune-out result.json   # auto-tune AQM parameters
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/fault"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/tune"
	"ecnsharp/internal/workload"
)

func main() {
	var (
		schemeName = flag.String("scheme", "ecnsharp", "AQM: ecnsharp, red-tail, red-avg, codel or tcn")
		wlName     = flag.String("workload", "websearch", "workload: websearch or datamining")
		load       = flag.Float64("load", 0.5, "offered load in (0,1]")
		flows      = flag.Int("flows", 400, "number of flows")
		seed       = flag.Int64("seed", 1, "random seed")
		seedsFlag  = flag.String("seeds", "", "comma-separated seeds to pool statistics over (overrides -seed)")
		parallel   = flag.Int("parallel", 0, "worker pool size for per-seed runs (0 = one per CPU, 1 = serial)")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit per individual run (0 = none)")
		progress   = flag.Bool("progress", false, "report each completed run on stderr")
		topo       = flag.String("topo", "star", "topology: star (8-host testbed) or leafspine (128 hosts)")
		shards     = flag.Int("shards", 0,
			"worker goroutines the topology's simulation domains run on (0 = one);\nresults are identical at any value (see DESIGN.md)")
		rttMinUS   = flag.Float64("rtt-min", 70, "minimum base RTT in microseconds")
		variation  = flag.Float64("rtt-variation", 3, "RTT variation factor (RTTmax/RTTmin)")
		replayPath = flag.String("replay", "", "replay flows from this flow CSV instead of generating them")
		saveFlows  = flag.String("save-flows", "", "write the generated flows to this flow CSV")
		faultsPath = flag.String("faults", "",
			"inject topology faults from this JSON schedule (link flaps, switch\nfailures, degrades — see internal/fault and DESIGN.md)")
		specPath = flag.String("spec", "",
			"run a JSON sweep spec instead of the flag-built single config — the\nsame schema ecnsharpd accepts (see docs/API.md); combines only with\n-parallel, -timeout, -progress and -trace")
		tunePath = flag.String("tune", "",
			"run a JSON tune spec: search AQM parameters over the spec's sweep\ngrid (same schema ecnsharpd's POST /v1/tune accepts; see docs/API.md\nand DESIGN.md); combines only with -tune-out, -tune-cache, -parallel,\n-timeout and -progress")
		tuneOut = flag.String("tune-out", "",
			"with -tune: write the full TuneResult JSON document to this file")
		tuneCache = flag.String("tune-cache", "",
			"with -tune: cache per-cell results in this directory, so re-tuning\noverlapping specs never recomputes a cell")

		traceFile = flag.String("trace", "",
			"stream an event trace to this file (JSONL; a .csv suffix selects CSV);\nwith multiple seeds each job writes <name>.job<N><ext>  (see TRACING.md)")
		traceEvents = flag.String("trace-events", "all",
			"comma-separated event types to trace: enqueue,dequeue,drop,mark,sojourn,cwnd,rate,echo,flow_start,flow_finish,fault,reroute,flow_fail or all")
		traceSample = flag.Int("trace-sample", 1, "keep every n-th selected event (sampling stride)")
		report      = flag.Bool("report", false,
			"print the run's report (windows, per-domain events, handoff messages and drains, per-domain packet pool gets and news; summed over -seeds) as one JSON line on stderr")
	)
	flag.Parse()

	// Each path reads only some flags; one set explicitly that the chosen
	// path would not read is a usage error, not a silent no-op. The flag
	// path reads every flag but the four that only -spec or -tune read.
	path, reads := "flag", map[string][]string{
		"-spec": {"spec", "parallel", "timeout", "progress", "trace"},
		"-tune": {"tune", "tune-out", "tune-cache", "parallel", "timeout", "progress"},
	}
	flag.VisitAll(func(f *flag.Flag) {
		if !slices.Contains([]string{"spec", "tune", "tune-out", "tune-cache"}, f.Name) {
			reads["flag"] = append(reads["flag"], f.Name)
		}
	})
	switch {
	case *specPath != "":
		path = "-spec"
	case *tunePath != "":
		path = "-tune"
	}
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads[path], f.Name) {
			fail(2, fmt.Errorf("-%s is not read by the %s path", f.Name, path))
		}
	})

	if *specPath != "" {
		runSpec(*specPath, *parallel, *timeout, *progress, *traceFile)
		return
	}
	if *tunePath != "" {
		runTune(*tunePath, *tuneOut, *tuneCache, *parallel, *timeout, *progress)
		return
	}

	seeds := []int64{*seed}
	if *seedsFlag != "" {
		seeds = seeds[:0]
		for _, s := range strings.Split(*seedsFlag, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ecnsim: bad -seeds entry %q\n", s)
				os.Exit(2)
			}
			seeds = append(seeds, v)
		}
	}

	// The flags describe one Cell; validating and resolving it is the spec
	// layer's job, so a bad value is the same one-line error -spec gives.
	// What a Cell cannot say (-replay/-save-flows, -faults, the streaming
	// -trace writer, -seeds) is layered on the resolved config below.
	cell := experiments.Cell{
		Topo: *topo, Scheme: *schemeName, Workload: *wlName,
		Load: *load, Flows: *flows, Seed: *seed,
		RTTMinUS: *rttMinUS, RTTVariation: *variation, Shards: *shards,
	}
	if err := cell.Validate(); err != nil {
		fail(2, err)
	}
	cfg, err := cell.RunConfig()
	if err != nil {
		fail(2, err)
	}

	if *replayPath != "" {
		// Replayed flows are not generated, so there is nothing to save.
		if *saveFlows != "" {
			fail(2, fmt.Errorf("-save-flows writes generated flows; it cannot be combined with -replay"))
		}
		f, err := os.Open(*replayPath)
		if err != nil {
			fail(1, err)
		}
		specs, err := workload.ReadSpecs(f)
		f.Close()
		if err != nil {
			fail(1, err)
		}
		cfg.Traffic = experiments.Traffic{}
		cfg.Flows = specs
	} else if *saveFlows != "" {
		// The saved flows replace generation, so they must be the ones the
		// run would have drawn: those of its one seed.
		if len(seeds) > 1 {
			fail(2, fmt.Errorf("-save-flows writes one seed's flows, got %d seeds", len(seeds)))
		}
		specs := cfg.FlowGen(experiments.TrafficRand(seeds[0]))
		f, err := os.Create(*saveFlows)
		if err != nil {
			fail(1, err)
		}
		if err := workload.WriteSpecs(f, specs); err != nil {
			fail(1, err)
		}
		f.Close()
		fmt.Printf("flows written to %s (%d flows)\n", *saveFlows, len(specs))
		cfg.Traffic = experiments.Traffic{}
		cfg.Flows = specs
	}

	if *faultsPath != "" {
		sched, err := fault.Load(*faultsPath)
		if err != nil {
			fail(2, err)
		}
		cfg.Faults = sched
		// A schedule that parses can still name a link or switch this
		// topology lacks; that is a bad flag value, not a crash mid-run.
		if err := cfg.CheckFaults(); err != nil {
			fail(2, err)
		}
		// Bound RTO retries so a schedule that permanently severs a path
		// fails its flows (reported below) instead of hanging the run.
		cfg.Transport = transport.DefaultConfig()
		cfg.Transport.MaxConsecTimeouts = 20
	}

	// Event tracing: one writer per run, every file created before any run
	// starts so one that cannot be is the command's failure, not a silently
	// untraced simulation. Under -seeds each run gets its own file named by
	// its seed's index, so concurrent runs never interleave writes; the
	// files are flushed after all runs finish.
	var (
		sinks      []trace.Tracer
		traceFlush []func() error
		tracePaths []string
	)
	if *traceFile != "" {
		mask, err := trace.ParseMask(*traceEvents)
		if err != nil {
			fail(2, err)
		}
		sinks = make([]trace.Tracer, len(seeds))
		for id := range seeds {
			path := *traceFile
			if len(seeds) > 1 {
				path = jobTracePath(path, id)
			}
			f, err := os.Create(path)
			if err != nil {
				fail(1, err)
			}
			var (
				t     trace.Tracer
				flush func() error
			)
			if strings.HasSuffix(path, ".csv") {
				w := trace.NewCSVWriter(f)
				t, flush = w, w.Flush
			} else {
				w := trace.NewJSONLWriter(f)
				t, flush = w, w.Flush
			}
			traceFlush = append(traceFlush, func() error {
				if err := flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			})
			tracePaths = append(tracePaths, path)
			sinks[id] = trace.NewFilter(t, mask, *traceSample)
		}
	}

	sc := experiments.Scale{Seeds: seeds, Parallel: *parallel, Timeout: *timeout, Progress: progressTo(*progress)}
	r := experiments.RunSeeds(sc, cfg, sinks)
	for _, flush := range traceFlush {
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim: trace:", err)
			os.Exit(1)
		}
	}
	if *report {
		line, err := json.Marshal(struct {
			sim.RunReport
			Pools []experiments.PoolCount `json:"pools"`
		}{r.Report, r.Pools})
		if err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "%s\n", line)
	}
	s := r.Stats
	fmt.Printf("scheme    %s\n", cfg.Scheme.Label)
	fmt.Printf("workload  %s @ %.0f%% load, %d flows, RTT %v-%v\n",
		*wlName, *load*100, r.Injected, cfg.RTT.Min, cfg.RTT.Max)
	if len(seeds) > 1 {
		fmt.Printf("pooled    %d seeds %v\n", len(seeds), seeds)
	}
	if cfg.Faults != nil {
		fmt.Printf("faults    %s\n", *faultsPath)
	}
	fmt.Printf("completed %d/%d flows", r.Completed, r.Injected)
	if r.Failed > 0 {
		fmt.Printf(" (%d failed by RTO exhaustion)", r.Failed)
	}
	fmt.Printf("\n\n")
	fmt.Printf("FCT overall avg      %10.1f us (%d flows)\n", s.OverallAvg, s.OverallCount)
	fmt.Printf("FCT short (<=100KB)  %10.1f us avg, %10.1f us p99 (%d flows)\n",
		s.ShortAvg, s.ShortP99, s.ShortCount)
	fmt.Printf("FCT large (>=10MB)   %10.1f us avg (%d flows)\n", s.LargeAvg, s.LargeCount)
	fmt.Printf("\nswitch drops %d, CE marks %d, timeouts %d, retransmits %d\n",
		r.Drops, r.Marks, r.Timeouts, r.Retransmits)
	if len(tracePaths) > 0 {
		sort.Strings(tracePaths)
		fmt.Printf("event trace: %s\n", strings.Join(tracePaths, ", "))
	}
}

// jobTracePath derives a per-job trace file name by inserting ".job<id>"
// before the extension: run.jsonl -> run.job3.jsonl.
func jobTracePath(path string, id int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.job%d%s", strings.TrimSuffix(path, ext), id, ext)
}

// progressTo returns the stderr per-run progress reporter, or nil when
// -progress is off.
func progressTo(on bool) func(harness.Progress) {
	if !on {
		return nil
	}
	return func(p harness.Progress) {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s (%v)\n",
			p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond))
	}
}

// fail reports err on stderr and exits: 2 for usage errors (bad flag or
// spec values), 1 for runtime failures.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "ecnsim:", err)
	os.Exit(code)
}

// runSpec executes a JSON sweep spec through the path ecnsharpd serves
// (experiments.RunCells, here without a store), pools the per-seed results
// per load point, and prints one stats block per load. When the spec
// requests tracing and -trace names a file, each cell's captured JSONL
// stream is written to <name>.job<N><ext>.
func runSpec(path string, parallel int, timeout time.Duration, progress bool, traceFile string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(1, err)
	}
	spec, err := experiments.ParseSweepSpec(data)
	if err != nil {
		fail(2, err)
	}
	outcomes, _ := experiments.RunCells(context.Background(), spec.Cells(), nil, nil, nil,
		harness.Options{Parallel: parallel, Timeout: timeout, OnDone: progressTo(progress)})
	results := make([]experiments.CellResult, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			fail(1, o.Err)
		}
		results[i] = o.Result
	}

	fmt.Printf("sweep     %s: %s/%s on %s, %d flows, RTT %vus x%v\n",
		path, spec.Scheme, spec.Workload, spec.Topo, spec.Flows, spec.RTTMinUS, spec.RTTVariation)
	fmt.Printf("grid      %d loads x %d seeds = %d cells\n\n", len(spec.Loads), len(spec.Seeds), len(results))
	for _, p := range spec.Pool(results) {
		s := p.Stats
		fmt.Printf("load %.0f%%  completed %d/%d\n", p.Load*100, p.Completed, p.Injected)
		fmt.Printf("  FCT overall avg      %10.1f us (%d flows)\n", s.OverallAvg, s.OverallCount)
		fmt.Printf("  FCT short (<=100KB)  %10.1f us avg, %10.1f us p99 (%d flows)\n",
			s.ShortAvg, s.ShortP99, s.ShortCount)
		fmt.Printf("  FCT large (>=10MB)   %10.1f us avg (%d flows)\n", s.LargeAvg, s.LargeCount)
		fmt.Printf("  drops %d, marks %d, timeouts %d, retransmits %d\n\n",
			p.Drops, p.Marks, p.Timeouts, p.Retransmits)
	}

	if traceFile != "" && spec.Trace != nil {
		var paths []string
		for i, r := range results {
			if r.TraceJSONL == "" {
				continue
			}
			p := jobTracePath(traceFile, i)
			if err := os.WriteFile(p, []byte(r.TraceJSONL), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "ecnsim: trace:", err)
				os.Exit(1)
			}
			paths = append(paths, p)
		}
		sort.Strings(paths)
		fmt.Printf("event trace: %s\n", strings.Join(paths, ", "))
	}
}

// runTune executes a JSON tune spec: the searcher proposes candidate
// parameter vectors, every candidate is scored on the spec's (load, seed)
// cell grid, and the winner is printed next to the paper-default anchor.
// With -tune-cache, per-cell results are content-addressed on disk so
// re-tuning never recomputes a cell.
func runTune(path, outPath, cacheDir string, parallel int, timeout time.Duration, progress bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(1, err)
	}
	spec, err := tune.ParseSpec(data)
	if err != nil {
		fail(2, err)
	}
	opts := tune.Options{Parallel: parallel, Timeout: timeout}
	if cacheDir != "" {
		store, err := cache.Open(cacheDir, cache.Options{})
		if err != nil {
			fail(1, err)
		}
		opts.Store = store
	}
	if progress {
		opts.OnProgress = func(p tune.Progress) {
			if p.Type != "eval" {
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] round %d cand %d score %.1f (best %.1f, %d/%d cells cached)\n",
				p.Evals, p.Budget, p.Round, p.Index, p.Score, p.BestScore, p.CachedCells, p.Cells)
		}
	}
	res, err := tune.Run(context.Background(), spec, opts)
	if err != nil {
		fail(1, err)
	}

	fmt.Printf("tune      %s: %s over %d params, budget %d, seed %d\n",
		path, spec.Searcher, spec.Space.NumParams(), spec.Budget, spec.Seed)
	fmt.Printf("grid      %s/%s on %s, %d loads x %d seeds per candidate\n",
		spec.Sweep.Scheme, spec.Sweep.Workload, spec.Sweep.Topo, len(spec.Sweep.Loads), len(spec.Sweep.Seeds))
	fmt.Printf("evals     %d candidates in %d rounds\n\n", len(res.Evals), res.Rounds)
	printVec := func(label string, e tune.Eval) {
		fmt.Printf("%s  objective(%s) = %.1f\n", label, spec.Objective, e.Score)
		for p, v := range e.Vector {
			fmt.Printf("  %-28s %10.1f\n", spec.Space.ParamName(p), v)
		}
	}
	printVec("default", res.Default)
	fmt.Println()
	printVec("tuned  ", res.Best)
	fmt.Printf("\nimprovement %.2fx (default/best)\n", res.Improvement)

	if outPath != "" {
		b, err := res.Encode()
		if err != nil {
			fail(1, err)
		}
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			fail(1, err)
		}
		fmt.Printf("result written to %s\n", outPath)
	}
}
