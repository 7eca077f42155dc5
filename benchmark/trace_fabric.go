package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
)

// composeFabric runs the scale cell by calling each layer in the order
// experiments.RunContext does, with a span around each call. What RunContext
// does for features the scale cell leaves off (tracers, faults, RTT
// injection, queue sampling, cancellation) is left out. traceFabric checks
// the simulated outputs against the untraced experiments.Run, so a drift
// between this and RunContext shows up as a failed run, not as wrong
// numbers.
func (r *run) composeFabric(cell experiments.ScaleCell, shards, op int) (simOutputs, uint64, error) {
	tr := r.tr

	g := tr.start("workload.gen", op, -1)
	cfg := fabricInputs(cell, shards, r.opts.seed)
	tr.end(g)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.start("fabric.run", op, -1)

	b := tr.start("topology.build", op, root)
	net := topology.NewLeafSpine(cell.Spines, cell.Leaves, cell.HostsPerLeaf, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   experiments.DefaultPropDelay,
			BufferBytes: experiments.DefaultBufferBytes,
		},
		NewAQM: cfg.Scheme.Factory(rand.New(rand.NewSource(cfg.Seed))),
		Shards: shards,
	})
	tr.end(b)
	runtime.ReadMemStats(&after)
	tr.count("topology.build_bytes", float64(after.HeapAlloc)-float64(before.HeapAlloc))

	l := tr.start("transport.launch", op, root)
	doms := net.Domains()
	collectors := make([]*metrics.FCTCollector, doms)
	for d := range collectors {
		collectors[d] = metrics.NewFCTCollector()
	}
	completedBy := make([]int, doms)
	table := transport.NewFlowTable(len(cfg.Flows))
	table.OnDone = func(i int) {
		d := net.DomainOfHost(table.Src[i])
		completedBy[d]++
		collectors[d].Record(table.Size[i], table.FCT[i], table.Query[i])
	}
	tcfg := transport.DefaultConfig()
	for i, spec := range cfg.Flows {
		table.Launch(tcfg, net.Host(spec.Src), net.Host(spec.Dst), uint64(i+1), spec.Size, spec.Start, spec.Query)
	}
	tr.end(l)

	s := tr.start("sim.run", op, root)
	err := net.Shard.RunPoll(sim.MaxTime, 0, nil)
	tr.end(s)
	if err != nil {
		return simOutputs{}, 0, fmt.Errorf("sharded run: %w", err)
	}

	c := tr.start("metrics.collect", op, root)
	table.CloseAll()
	collector := metrics.NewFCTCollector()
	for _, dc := range collectors {
		collector.Merge(dc)
	}
	res := experiments.RunResult{
		Stats:    collector.Stats(),
		Drops:    net.TotalDrops(),
		Marks:    net.TotalMarks(),
		Injected: len(cfg.Flows),
		Net:      net,
	}
	for _, n := range completedBy {
		res.Completed += n
	}
	for _, snd := range table.Senders {
		res.Timeouts += snd.Stats.Timeouts
		res.Retransmits += snd.Stats.Retransmits
	}
	tr.end(c)
	tr.end(root)

	out, err := outputsOf(res)
	return out, net.Shard.Windows(), err
}

// traceFabric is the traced pass of a fabric workload: the same number of
// runs as the untraced pass, composed layer by layer, each required to
// reproduce the untraced outputs.
func (r *run) traceFabric(cell experiments.ScaleCell, shards, reps int, want simOutputs, untraced measured, refWall float64) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var windows uint64
	traced := untraced.timed.next()
	for op := 0; op < reps; op++ {
		out, w, err := r.composeFabric(cell, shards, op)
		if err != nil {
			return err
		}
		windows = w
		r.tally.check(out.digest() == want.digest(),
			"traced composition gave events/marks/completed %d/%d/%d, experiments.Run gave %d/%d/%d",
			out.Events, out.Marks, out.Completed, want.Events, want.Marks, want.Completed)
		runs := r.tr.seconds("fabric.run")
		traced.add(runs[len(runs)-1], 0)
		traced.probed(r.probe())
		runtime.GC()
	}
	runtime.ReadMemStats(&ms1)

	tr := r.tr
	events := float64(want.Events)
	r.layer["sim.run_s"] = median(tr.seconds("sim.run"))
	r.layer["sim.events"] = events
	r.layer["sim.windows"] = float64(windows)
	r.layer["sim.domains"] = float64(cell.Leaves + cell.Spines)
	r.layer["sim.events_per_window"] = events / float64(windows)
	if shards > 1 {
		r.layer["sim.shard_speedup"] = refWall / untraced.estimate(untraced.timed.raw())
		r.remarks = append(r.remarks, fmt.Sprintf("sim.shard_speedup base: %.0f events/s on 1 worker", events/refWall))
	}
	r.layer["topology.build_s"] = median(tr.seconds("topology.build"))
	r.layer["topology.build_bytes_per_host"] = tr.counts["topology.build_bytes"] / float64(reps) / float64(cell.Hosts)
	r.layer["workload.gen_s"] = median(tr.seconds("workload.gen"))
	r.layer["transport.launch_s"] = median(tr.seconds("transport.launch"))
	r.layer["transport.retransmits"] = float64(want.Retransmits)
	r.layer["transport.timeouts"] = float64(want.Timeouts)
	r.layer["queue.marks"] = float64(want.Marks)
	r.layer["queue.drops"] = float64(want.Drops)
	r.layer["metrics.collect_s"] = median(tr.seconds("metrics.collect"))
	r.runtimeDelta(&ms0, &ms1)
	r.layer["runtime.alloc_bytes_per_event"] = r.layer["runtime.alloc_mb"] * 1e6 / (events * float64(reps))
	r.layer["bench.trace_overhead_frac"] = untraced.estimate(traced.seconds())/untraced.wall() - 1
	return nil
}
