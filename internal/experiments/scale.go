package experiments

import (
	"time"

	"ecnsharp/internal/harness"
)

// Scale controls how much work an experiment does. The paper's full
// parameter grids are expensive at packet granularity; Quick keeps every
// qualitative comparison while trimming flow counts, seeds and sweep
// points so the whole suite runs in minutes. Full mirrors the paper's
// grid densities.
//
// It also carries the execution knobs for the job harness: every
// independent (config, seed) run is fanned out over a worker pool, and
// because results merge in submission order, the output is identical at
// any Parallel setting.
type Scale struct {
	// FlowCount is the number of background flows per run.
	FlowCount int
	// HeavyFlowCount substitutes FlowCount for data-mining runs: that
	// workload's mean flow is ~8× larger, so the same event budget covers
	// fewer flows.
	HeavyFlowCount int
	// Seeds are averaged per configuration (the paper averages 3 runs).
	Seeds []int64
	// Loads are the offered-load points for load sweeps (fractions).
	Loads []float64
	// LeafSpineFlowCount overrides FlowCount for the 128-host fabric.
	LeafSpineFlowCount int
	// Fanouts are the incast sender counts for Figure 11.
	Fanouts []int

	// Parallel sizes the worker pool for independent simulation runs:
	// 0 means one worker per CPU (GOMAXPROCS), 1 runs serially.
	Parallel int
	// Timeout, when positive, bounds each individual run's wall-clock
	// time; an exceeded run aborts the experiment.
	Timeout time.Duration
	// Progress, when non-nil, receives one event per completed run.
	Progress func(harness.Progress)
}

// harnessOptions maps the Scale's execution knobs onto the job harness.
func (sc Scale) harnessOptions() harness.Options {
	return harness.Options{Parallel: sc.Parallel, Timeout: sc.Timeout, OnDone: sc.Progress}
}

// firstSeed is sc restricted to its first seed: the microscopic views (queue
// traces, churn tables) show one run, not a pool.
func (sc Scale) firstSeed() Scale {
	sc.Seeds = sc.Seeds[:1]
	return sc
}

// FullScale mirrors the paper's grids: loads 10–90%, three seeds.
func FullScale() Scale {
	return Scale{
		FlowCount:          2000,
		HeavyFlowCount:     800,
		Seeds:              []int64{1, 2, 3},
		Loads:              []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		LeafSpineFlowCount: 4000,
		Fanouts:            []int{25, 50, 75, 100, 125, 150, 175, 200},
	}
}

// QuickScale is the default for benches and tests.
func QuickScale() Scale {
	return Scale{
		FlowCount:          400,
		HeavyFlowCount:     150,
		Seeds:              []int64{1, 2},
		Loads:              []float64{0.3, 0.5, 0.7, 0.9},
		LeafSpineFlowCount: 800,
		Fanouts:            []int{25, 50, 100, 150, 200},
	}
}

// SmokeScale is the minimal scale used by unit tests of the experiment
// harness itself.
func SmokeScale() Scale {
	return Scale{
		FlowCount:          120,
		HeavyFlowCount:     80,
		Seeds:              []int64{1},
		Loads:              []float64{0.5},
		LeafSpineFlowCount: 200,
		Fanouts:            []int{50, 100},
	}
}
