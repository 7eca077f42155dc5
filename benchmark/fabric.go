package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	"ecnsharp/internal/experiments"
)

// seedOneEvents is what each scale tier executes on the unrotated (seed 1)
// traffic, as recorded in BENCH_scale.json. The cell is RNG-free, so any
// other count means the simulation itself changed.
var seedOneEvents = map[int]uint64{
	1_024:   345_088,
	10_240:  3_450_880,
	100_000: 33_700_000,
}

// fabricInputs is the scale cell's run for a seed. Seed 1 is
// ScaleCellConfig's own traffic (every host sends 30 KB to its counterpart
// one leaf over); seed S moves each destination 1+(S-1) mod (leaves-1)
// leaves over instead, so inputs differ by seed while staying RNG-free and
// cross-leaf.
func fabricInputs(cell experiments.ScaleCell, shards int, seed int64) experiments.RunConfig {
	cfg := experiments.ScaleCellConfig(cell, shards)
	span := int64(cell.Leaves - 1)
	rot := 1 + int(((seed-1)%span+span)%span)
	if rot != 1 {
		for i := range cfg.Flows {
			cfg.Flows[i].Dst = (i + rot*cell.HostsPerLeaf) % cell.Hosts
		}
	}
	return cfg
}

// simOutputs is everything simulated that a fabric run reports. Two runs
// of the same inputs must agree on all of it whatever the worker count.
type simOutputs struct {
	Events      uint64          `json:"events"`
	Marks       int64           `json:"marks"`
	Drops       int64           `json:"drops"`
	Retransmits int64           `json:"retransmits"`
	Timeouts    int64           `json:"timeouts"`
	Completed   int             `json:"completed"`
	Injected    int             `json:"injected"`
	Stats       json.RawMessage `json:"fct_stats"`
}

func outputsOf(res experiments.RunResult) (simOutputs, error) {
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		return simOutputs{}, fmt.Errorf("encoding FCT stats: %w", err)
	}
	return simOutputs{
		Events: res.Net.Shard.Processed(), Marks: res.Marks, Drops: res.Drops,
		Retransmits: res.Retransmits, Timeouts: res.Timeouts,
		Completed: res.Completed, Injected: res.Injected, Stats: stats,
	}, nil
}

func (o simOutputs) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // plain integers and already-encoded JSON
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkFabricRun applies the per-run checks: every flow completes, and on
// seed 1 the event count is the recorded one.
func (r *run) checkFabricRun(hosts int, out simOutputs) {
	r.tally.ops(out.Injected, out.Injected-out.Completed, "flows")
	if want, ok := seedOneEvents[hosts]; ok && r.opts.seed == 1 {
		r.tally.check(out.Events == want, "hosts=%d executed %d events, want %d", hosts, out.Events, want)
	}
}

// runFabric runs the scale cell reps times through experiments.Run, with a
// probe after each. With more than one worker it first runs the same inputs
// on one worker (part of set-up) and requires every later run to reproduce
// those outputs.
func (r *run) runFabric(hosts, shards, reps int) error {
	cell, err := experiments.ScaleCellByHosts(hosts)
	if err != nil {
		return err
	}

	m := r.beginSetup()
	if reps > 1 {
		m.estimate = fastestQuarterMean
	}
	var cfg experiments.RunConfig
	gen := make([]float64, r.size.setupReps)
	for i := range gen {
		gen[i] = wallOf(func() { cfg = fabricInputs(cell, shards, r.opts.seed) })
	}
	m.setupS = median(gen)

	var ref simOutputs
	var refWall float64
	if shards > 1 {
		var refErr error
		refWall = wallOf(func() {
			ref, refErr = outputsOf(experiments.Run(fabricInputs(cell, 1, r.opts.seed)))
		})
		if refErr != nil {
			return refErr
		}
		m.setupS += refWall
		r.checkFabricRun(hosts, ref)
		runtime.GC()
	}
	wantDigest := ref.digest()
	if r.opts.corruptReference {
		wantDigest = flipByte(wantDigest)
	}
	r.beginTimed(&m)

	var res experiments.RunResult
	var out simOutputs
	for i := 0; i < reps; i++ {
		if i > 0 {
			res = experiments.RunResult{}
			runtime.GC()
		}
		sw := startWatch()
		res = experiments.Run(cfg)
		m.timed.add(sw.stop())

		if out, err = outputsOf(res); err != nil {
			return err
		}
		r.checkFabricRun(hosts, out)
		if shards > 1 {
			r.tally.check(out.digest() == wantDigest,
				"run %d on %d workers gave events/marks/drops/completed %d/%d/%d/%d, 1 worker %d/%d/%d/%d",
				i, shards, out.Events, out.Marks, out.Drops, out.Completed, ref.Events, ref.Marks, ref.Drops, ref.Completed)
		}
		m.timed.probed(r.probe())
	}
	r.digest = out.digest()
	m.work = float64(out.Events)
	m.live = liveHeapBytes()
	runtime.KeepAlive(res)
	if err := r.reportEndToEnd(m); err != nil {
		return err
	}
	if !r.opts.trace {
		return nil
	}
	res = experiments.RunResult{}
	runtime.GC()
	return r.traceFabric(cell, shards, reps, out, m, refWall)
}
