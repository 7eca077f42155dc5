package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string

	// Only the tests set the two below. smoke shrinks every workload to a
	// second or two while keeping its shape. corruptReference flips a byte
	// of the reference digest before a workload compares against it, to
	// show that the correctness checks can fail.
	smoke            bool
	corruptReference bool
}

// sizes are the workload dimensions. The full sizes are what BENCHMARK.json
// describes; the smoke sizes keep the shape and finish in a second or two.
type sizes struct {
	fabricHosts int // tier simulated by fabric100k
	w2Hosts     int // tier simulated by fabric10k.w2
	w2Reps      int
	setupReps   int // repetitions of a cheap set-up, reported as their median

	sweepLoads []float64
	sweepFlows int
	sweepSeeds int
	warmIters  int
	// mirrorIters is how many warm sweeps the traced in-process mirror of
	// the service's sweep runner replays.
	mirrorIters int

	kernelTime  string // testing.Benchmark's benchtime for the kernels
	probeRounds int    // rounds per probe, of which the median counts
}

func sizesFor(o options) sizes {
	if o.smoke {
		return sizes{
			fabricHosts: 1024, w2Hosts: 1024, w2Reps: 4, setupReps: 3,
			sweepLoads: []float64{0.5}, sweepFlows: 40, sweepSeeds: 2,
			warmIters: 20, mirrorIters: 5, kernelTime: "5ms", probeRounds: 1,
		}
	}
	sized := func(atNominal, least int) int {
		n := int(math.Round(float64(atNominal) * float64(o.seconds) / runSeconds))
		if n < least {
			n = least
		}
		return n
	}
	return sizes{
		fabricHosts: 100_000, w2Hosts: 10_240, w2Reps: sized(12, 4), setupReps: 25,
		sweepLoads: []float64{0.3, 0.5, 0.7, 0.9}, sweepFlows: 400, sweepSeeds: 3,
		warmIters: sized(1500, 20), mirrorIters: 200, kernelTime: "300ms", probeRounds: 3,
	}
}

// tally counts what a run attempted and what failed: flows, cells, HTTP
// responses, and every correctness check. It feeds the result line's
// attempted/failed/correct.
type tally struct {
	attempted int
	failed    int
	notes     []string
}

// ops records n operations of which bad failed.
func (t *tally) ops(n, bad int, what string) {
	t.attempted += n
	t.failed += bad
	if bad > 0 {
		t.notes = append(t.notes, fmt.Sprintf("%d of %d %s failed", bad, n, what))
	}
}

// check records one correctness check; the message describes the failure.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// run is the state of one workload run.
type run struct {
	opts  options
	size  sizes
	tally tally
	// e2e holds the end-to-end metrics (tracing off); layer holds the
	// per-layer metrics of the traced pass.
	e2e    map[string]float64
	layer  map[string]float64
	digest string
	// speed is the speed index over the probes of the untraced timed section
	// and rawWallS its wall_s as measured; both go to the info line.
	speed    float64
	rawWallS float64
	// remarks are printed with the run: the base of a reported ratio.
	remarks []string
	tr      *tracer
	tmp     string
}

// measured is what a workload's untraced pass hands to reportEndToEnd.
// All seconds in it are as measured; reportEndToEnd scales them.
type measured struct {
	setupS      float64
	setupProbes []float64 // the probes before and after the set-up
	timed       section
	// estimate turns the seconds of the timed operations into wall_s.
	estimate func([]float64) float64
	work     float64 // units of work behind wall_s (events, cells, sweeps)
	live     uint64  // heap bytes surviving a forced collection afterwards
}

// scaled says whether a workload's seconds are scaled by the speed index.
// fabric100k's are not: its one long memory-bound operation moves by 12 to
// 16 % between identical runs whether scaled or not, so it is reported as
// measured (README.md, "Noise").
func scaled(workload string) bool { return workload != "fabric100k" }

// beginSetup takes the probe that precedes the set-up.
func (r *run) beginSetup() measured {
	return measured{
		setupProbes: []float64{r.probe()},
		timed:       section{scale: scaled(r.opts.workload)},
		estimate:    sum,
	}
}

// beginTimed takes the probe that both ends the set-up and begins the timed
// section.
func (r *run) beginTimed(m *measured) {
	p := r.probe()
	m.setupProbes = append(m.setupProbes, p)
	m.timed.probed(p)
}

// wall is the section's wall_s: the workload's estimator over the seconds
// of its operations.
func (m measured) wall() float64 { return m.estimate(m.timed.seconds()) }

func (r *run) reportEndToEnd(m measured) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	setup := m.setupS
	if m.timed.scale {
		setup *= speedIndex(m.setupProbes)
	}
	seconds := m.timed.seconds()
	wall := m.estimate(seconds)
	r.speed, r.rawWallS = speedIndex(m.timed.probes), m.estimate(m.timed.raw())
	r.e2e = map[string]float64{
		"setup_s":      setup,
		"wall_s":       wall,
		"work_per_sec": m.work / wall,
		"p50_ms":       median(seconds) * 1e3,
		"cpu_s":        m.timed.cpu(),
		"peak_rss_mb":  rss,
		"live_heap_mb": float64(m.live) / 1e6,
	}
	return nil
}

// probe takes one probe of the box's speed (probe.go).
func (r *run) probe() float64 { return probe(r.size.probeRounds) }

// scratch returns a fresh directory under the run's temp root.
func (r *run) scratch(name string) (string, error) {
	dir := filepath.Join(r.tmp, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// flipByte returns the hex digest with its first character changed.
func flipByte(digest string) string {
	c := byte('0')
	if digest[0] == '0' {
		c = '1'
	}
	return string(c) + digest[1:]
}

// metricValue and resultLine are the last line of a run's standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// infoLine precedes the result line: where and on what the run was made,
// and the digest of its simulated outputs.
type infoLine struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	SimDigest string `json:"sim_digest"`
	// SimChanged is set on full-size seed-1 runs: whether sim_digest
	// differs from the one recorded in baseline.json.
	SimChanged *bool `json:"sim_changed,omitempty"`
	// SpeedIndex is how fast the box ran during the timed section relative
	// to the quiet reference box; RawWallS is wall_s as measured, for a
	// reader to compare with the scaled one.
	SpeedIndex float64  `json:"speed_index"`
	RawWallS   float64  `json:"raw_wall_s"`
	Spans      string   `json:"spans,omitempty"`
	Notes      []string `json:"notes,omitempty"`
	Env        envInfo  `json:"env"`
}

func (r *run) result() resultLine {
	defs, values := endToEnd, r.e2e
	if r.opts.trace {
		defs, values = perLayer, r.layer
	}
	out := resultLine{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

func (r *run) info() infoLine {
	info := infoLine{
		Workload: r.opts.workload, Seed: r.opts.seed, Seconds: r.opts.seconds,
		Trace: r.opts.trace, SimDigest: r.digest, SpeedIndex: r.speed, RawWallS: r.rawWallS, Notes: append(r.tally.notes, r.remarks...), Env: environment(),
	}
	if r.opts.trace {
		info.Spans = r.opts.spans
	}
	if want, ok := baseline().SimDigest[r.opts.workload]; ok && r.opts.seed == 1 && !r.opts.smoke {
		changed := want != r.digest
		info.SimChanged = &changed
	}
	return info
}

func printJSONLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
