package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/harness"
)

// mirrorOutcome is one cell of a mirrored sweep.
type mirrorOutcome struct {
	payload []byte
	hit     bool
	result  experiments.CellResult
}

// mirrorSweep does in this process, with spans, what the service does for
// one submitted sweep and one results request: the cells go through
// harness.Execute, each through Store.Do around Cell.Run and Encode, then
// DecodeCellResult (service.runSweep); and the per-load pooling of the
// decoded records (service.handleResults). Only the HTTP and JSON framing
// is missing, and that the client-side spans of roundTrip cover.
func (r *run) mirrorSweep(store *cache.Store, spec *experiments.SweepSpec, op int) ([]*mirrorOutcome, []harness.Result, error) {
	tr := r.tr
	cells := spec.Cells()
	root := tr.start("service.run_sweep", op, -1)
	var exec int
	jobs := make([]harness.Job, len(cells))
	for i, cell := range cells {
		key := cell.Key(experiments.ResultSchemaVersion)
		jobs[i] = harness.Job{
			Label: key,
			Run: func(ctx context.Context) (any, error) {
				do := tr.start("cache.do", op, exec)
				payload, hit, err := store.Do(key, func() ([]byte, error) {
					s := tr.start("experiments.cell_run", op, do)
					res, err := cell.Run(ctx)
					tr.end(s)
					if err != nil {
						return nil, err
					}
					s = tr.start("experiments.encode", op, do)
					defer tr.end(s)
					return res.Encode()
				})
				tr.end(do)
				if err != nil {
					return nil, err
				}
				s := tr.start("experiments.decode", op, exec)
				res, err := experiments.DecodeCellResult(payload)
				tr.end(s)
				if err != nil {
					return nil, err
				}
				return &mirrorOutcome{payload: payload, hit: hit, result: res}, nil
			},
		}
	}
	exec = tr.start("harness.execute", op, root)
	results, err := harness.Execute(context.Background(), jobs, harness.Options{Parallel: sweepWorkers})
	tr.end(exec)
	if err != nil {
		return nil, nil, err
	}
	outcomes := make([]*mirrorOutcome, len(results))
	for i, res := range results {
		if res.Err != nil {
			return nil, nil, fmt.Errorf("mirrored cell %d: %w", i, res.Err)
		}
		outcomes[i] = res.Value.(*mirrorOutcome)
	}

	p := tr.start("metrics.pool", op, root)
	seeds := len(spec.Seeds)
	for li := range spec.Loads {
		pool := experiments.CellResult{}.Collector()
		for si := 0; si < seeds; si++ {
			pool.Merge(outcomes[li*seeds+si].result.Collector())
		}
		tr.count("metrics.pooled_flows", float64(pool.Stats().OverallCount))
	}
	tr.end(p)
	tr.end(root)
	return outcomes, results, nil
}

// runtimeDelta reports what the Go runtime did between two MemStats reads.
func (r *run) runtimeDelta(ms0, ms1 *runtime.MemStats) {
	r.layer["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	r.layer["runtime.num_gc"] = float64(ms1.NumGC - ms0.NumGC)
	r.layer["runtime.gc_cpu_frac"] = ms1.GCCPUFraction
	r.layer["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
}

// storeCounts reports the cache's own counters.
func (r *run) storeCounts(store *cache.Store) cache.Stats {
	st := store.Stats()
	r.layer["cache.hits"] = float64(st.Hits)
	r.layer["cache.misses"] = float64(st.Misses)
	r.layer["cache.puts"] = float64(st.Puts)
	r.layer["cache.shared"] = float64(st.Shared)
	r.layer["cache.bytes"] = float64(st.Bytes)
	return st
}

// sentinels adds one cell's simulated-behaviour counters to the per-layer
// sums and its flows to the tally.
func (r *run) sentinels(res experiments.CellResult) {
	r.tally.ops(1, 0, "")
	r.tally.ops(res.Injected, res.Injected-res.Completed, "flows of a mirrored cell")
	r.layer["transport.retransmits"] += float64(res.Retransmits)
	r.layer["transport.timeouts"] += float64(res.Timeouts)
	r.layer["queue.marks"] += float64(res.Marks)
	r.layer["queue.drops"] += float64(res.Drops)
}

// clientPhases reports the three client-side phases of the traced round
// trips, each as its median.
func (r *run) clientPhases() {
	r.layer["service.submit_ms"] = median(r.tr.seconds("service.submit")) * 1e3
	r.layer["service.stream_ms"] = median(r.tr.seconds("service.stream")) * 1e3
	r.layer["service.results_ms"] = median(r.tr.seconds("service.results")) * 1e3
}

// traceSweepCold is the traced pass of sweep.cold: the HTTP round trip
// again on a fresh cache with client-side spans, then the in-process mirror
// on another fresh cache.
func (r *run) traceSweepCold(specJSON []byte, cells int, want string, untraced measured) error {
	tr := r.tr
	dir, err := r.scratch("cold-traced")
	if err != nil {
		return err
	}
	traced := untraced.timed.next()
	d, cold, err := r.coldPass(dir, specJSON, cells, tr)
	if err != nil {
		return err
	}
	d.close()
	traced.add(cold.wall, cold.cpu)
	traced.probed(r.probe())
	r.tally.check(cold.digest == want, "traced cold sweep digest %.12s, untraced %.12s", cold.digest, want)
	r.layer["bench.trace_overhead_frac"] = sum(traced.seconds())/untraced.wall() - 1
	r.clientPhases()

	spec, err := experiments.ParseSweepSpec(specJSON)
	if err != nil {
		return err
	}
	if dir, err = r.scratch("cold-mirror"); err != nil {
		return err
	}
	var store *cache.Store
	r.layer["cache.open_ms"] = 1e3 * wallOf(func() { store, err = cache.Open(dir, cache.Options{}) })
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	outcomes, results, err := r.mirrorSweep(store, spec, 1)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	r.runtimeDelta(&ms0, &ms1)
	st := r.storeCounts(store)
	r.tally.check(st.Hits == 0 && st.Puts == int64(cells), "mirrored cold sweep: store hits/puts %d/%d, want 0/%d", st.Hits, st.Puts, cells)

	// Flow generation runs inside Cell.Run; generating each cell's flows
	// once more out here is the only way to see its cost from outside.
	var busy, payload float64
	for i, cell := range spec.Cells() {
		cfg, err := cell.RunConfig()
		if err != nil {
			return err
		}
		g := tr.start("workload.gen", 1, -1)
		flows := cfg.FlowGen(rand.New(rand.NewSource(cfg.Seed)))
		tr.end(g)
		tr.count("workload.flows", float64(len(flows)))

		r.sentinels(outcomes[i].result)
		payload += float64(len(outcomes[i].payload))
		busy += results[i].Elapsed.Seconds()

		s := tr.start("cache.get", 1, -1)
		_, ok, err := store.Get(cell.Key(experiments.ResultSchemaVersion))
		tr.end(s)
		r.tally.check(ok && err == nil, "cell %d is not in the cache after its sweep: %v", i, err)
	}

	execute := sum(tr.seconds("harness.execute"))
	cellRuns := tr.seconds("experiments.cell_run")
	r.layer["workload.gen_s"] = sum(tr.seconds("workload.gen"))
	r.layer["metrics.pool_us_sweep"] = sum(tr.seconds("metrics.pool")) * 1e6
	r.layer["experiments.cell_run_s_p50"] = median(cellRuns)
	r.layer["experiments.cell_run_s_max"] = slices.Max(cellRuns)
	r.layer["experiments.encode_us_cell"] = median(tr.seconds("experiments.encode")) * 1e6
	r.layer["experiments.decode_us_cell"] = median(tr.seconds("experiments.decode")) * 1e6
	r.layer["experiments.result_bytes_cell"] = payload / float64(cells)
	r.layer["harness.execute_s"] = execute
	r.layer["harness.utilisation"] = busy / (sweepWorkers * execute)
	r.layer["harness.straggler_s"] = execute - busy/sweepWorkers
	r.layer["cache.get_us_op"] = median(tr.seconds("cache.get")) * 1e6
	r.layer["cache.put_us_op"] = median(tr.selfSeconds("cache.do")) * 1e6
	return nil
}

// traceSweepWarm is the traced pass of sweep.warm, on the directory the
// untraced pass filled: the same number of round trips against a freshly
// started daemon with client-side spans, then mirrorIters all-hit sweeps
// through the in-process mirror on a reopened store.
func (r *run) traceSweepWarm(dir string, specJSON []byte, cells int, want string, untraced measured) error {
	tr := r.tr
	d, err := openDaemon(dir)
	if err != nil {
		return err
	}
	traced := untraced.timed.next()
	_, err = r.warmLoop(d, specJSON, cells, want, tr, &traced)
	d.close()
	if err != nil {
		return err
	}
	r.layer["bench.trace_overhead_frac"] = sum(traced.seconds())/untraced.wall() - 1
	r.clientPhases()

	spec, err := experiments.ParseSweepSpec(specJSON)
	if err != nil {
		return err
	}
	store, err := cache.Open(dir, cache.Options{})
	if err != nil {
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	iters := r.size.mirrorIters
	var busy, payload float64
	for i := 0; i < iters; i++ {
		outcomes, results, err := r.mirrorSweep(store, spec, r.size.warmIters+i)
		if err != nil {
			return err
		}
		for c, oc := range outcomes {
			if i == 0 {
				r.sentinels(oc.result)
			}
			r.tally.check(oc.hit, "mirrored warm sweep %d computed cell %d", i, c)
			payload += float64(len(oc.payload))
			busy += results[c].Elapsed.Seconds()
		}
	}
	runtime.ReadMemStats(&ms1)
	r.runtimeDelta(&ms0, &ms1)
	st := r.storeCounts(store)
	r.tally.check(st.Misses == 0 && st.Hits == int64(iters*cells), "mirrored warm store hits/misses %d/%d, want %d/0", st.Hits, st.Misses, iters*cells)

	execute := tr.seconds("harness.execute")
	r.layer["metrics.pool_us_sweep"] = median(tr.seconds("metrics.pool")) * 1e6
	r.layer["experiments.decode_us_cell"] = median(tr.seconds("experiments.decode")) * 1e6
	r.layer["experiments.result_bytes_cell"] = payload / float64(iters*cells)
	r.layer["harness.execute_s"] = median(execute)
	r.layer["harness.utilisation"] = busy / (sweepWorkers * sum(execute))
	r.layer["harness.straggler_s"] = median(execute) - busy/sweepWorkers/float64(iters)
	r.layer["cache.get_us_op"] = median(tr.seconds("cache.do")) * 1e6
	return nil
}
