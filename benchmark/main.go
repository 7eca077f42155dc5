// Command benchmark is the repository's benchmark driver: four workloads
// over the simulator and the experiment service, seven end-to-end metrics
// measured with tracing off, and a traced pass that attributes the time to
// layers. BENCHMARK.json at the repository root describes it; README.md in
// this directory says why each workload and metric is there.
//
//	go run ./benchmark                          every workload, one child process each
//	go run ./benchmark -workload sweep.warm     one workload; last stdout line is the result
//	go run ./benchmark -trace 1                 per-layer metrics; spans go to -spans
//	go run ./benchmark -repeat 10               ten sets, with quartiles and spread per metric
//
// bash benchmark/run.sh takes the same flags and keeps the build inside
// the checkout; it is the command BENCHMARK.json names.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// scratchRoot holds everything a run writes: cache directories, span files.
// It is relative to the working directory, which is the checkout root.
const scratchRoot = ".bench_build"

// procs is the one GOMAXPROCS every run uses, whatever the machine offers,
// so numbers from different boxes differ by the box and not by the setting.
const procs = 2

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var o options
	var trace, repeat int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "the only source of variation in the inputs")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "nominal measured seconds; scales the repeat counts of fabric10k.w2 and sweep.warm")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, the span file (default "+scratchRoot+"/spans/<workload>.jsonl)")
	fs.IntVar(&repeat, "repeat", 1, "without -workload: run this many sets on the same seed and report the spread")
	fs.Parse(os.Args[1:])
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds < 1 || repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: want -trace 0|1, -seconds >= 1, -repeat >= 1 and no positional arguments")
		os.Exit(2)
	}

	var err error
	if o.workload == "" {
		err = runAll(o, repeat)
	} else {
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("an operation or a correctness check failed")

// expectedSeconds is what one run of each workload takes on the reference
// box at the nominal -seconds, set-up and checks included: untraced, and
// with the traced pass and the kernels after it.
var expectedSeconds = map[string][2]float64{
	"fabric100k":   {30, 58},
	"fabric10k.w2": {20, 40},
	"sweep.cold":   {15, 47},
	"sweep.warm":   {25, 41},
}

// timeLimit is a run's hard timeout: three times what it is expected to
// take, and never so long that a caller allowing three minutes gives up
// first.
func timeLimit(o options) time.Duration {
	expected := expectedSeconds[o.workload][0]
	if o.trace {
		expected = expectedSeconds[o.workload][1]
	}
	if o.seconds > runSeconds {
		expected *= float64(o.seconds) / runSeconds
	}
	return min(time.Duration(3*expected*float64(time.Second)), 175*time.Second)
}

// failedRun is the result line of a run that ended without measuring
// anything: it counts as one operation, failed.
func failedRun() resultLine {
	return resultLine{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
}

// runOne runs a single workload in this process and prints its info line
// and, last, its result line. A run that outlives its time limit or ends in
// an error prints a failed result line.
func runOne(o options) error {
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	limit := timeLimit(o)
	// finishing is held by whichever of the run and its timeout gets to
	// print the result line; the other one never does.
	var finishing sync.Mutex
	afterFunc(limit, func() {
		finishing.Lock()
		fmt.Fprintf(os.Stderr, "benchmark: %s has no result after %v: timed out\n", o.workload, limit)
		os.RemoveAll(runDir(o.workload, os.Getpid()))
		printJSONLine(failedRun())
		os.Exit(3)
	})
	runtime.GOMAXPROCS(procs)
	r, err := execute(o)
	finishing.Lock()
	if err != nil {
		printJSONLine(failedRun())
		return err
	}
	info := r.info()
	if info.SimChanged != nil && *info.SimChanged {
		fmt.Fprintf(os.Stderr, "sim_changed: %s seed 1 digest %s differs from baseline.json\n", o.workload, r.digest)
	}
	for _, n := range info.Notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	if err := printJSONLine(info); err != nil {
		return err
	}
	if err := printJSONLine(r.result()); err != nil {
		return err
	}
	if r.tally.failed > 0 {
		return errIncorrect
	}
	return nil
}

// runDir is where the run of a workload in process pid keeps its cache
// directories while it lasts.
func runDir(workload string, pid int) string {
	return filepath.Join(scratchRoot, "run", fmt.Sprintf("%s-%d", workload, pid))
}

// execute runs one workload: its untraced pass always, and with o.trace the
// traced pass and the kernels after it.
func execute(o options) (*run, error) {
	if o.spans == "" {
		o.spans = filepath.Join(scratchRoot, "spans", o.workload+".jsonl")
	}
	tmp := runDir(o.workload, os.Getpid())
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := &run{opts: o, size: sizesFor(o), tmp: tmp, layer: make(map[string]float64)}
	if o.trace {
		r.tr = newTracer(o.workload)
	}
	var err error
	switch o.workload {
	case "fabric100k":
		err = r.runFabric(r.size.fabricHosts, 1, 1)
	case "fabric10k.w2":
		err = r.runFabric(r.size.w2Hosts, 2, r.size.w2Reps)
	case "sweep.cold":
		err = r.runSweepCold()
	case "sweep.warm":
		err = r.runSweepWarm()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		if err := r.runKernels(); err != nil {
			return nil, err
		}
		if err := r.tr.write(o.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r, nil
}

// childResult is what the parent keeps of one child run.
type childResult struct {
	info   infoLine
	result resultLine
}

// summary is what the closing JSON line of a run over all workloads keeps of
// one child run.
type summary struct {
	SimDigest  string     `json:"sim_digest"`
	SpeedIndex float64    `json:"speed_index"`
	RawWallS   float64    `json:"raw_wall_s"`
	Result     resultLine `json:"result"`
}

// runChild runs one workload in a child process of this binary and parses
// the last two lines of its output. A child that prints no result line
// (killed at its time limit, crashed) is reported as a failed run.
func runChild(ctx context.Context, o options, workload string) childResult {
	failed := func(format string, args ...any) childResult {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", workload, fmt.Sprintf(format, args...))
		return childResult{info: infoLine{Workload: workload, Seed: o.seed, Env: environment()}, result: failedRun()}
	}
	self, err := os.Executable()
	if err != nil {
		return failed("%v", err)
	}
	o.workload = workload
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	// The child enforces its own limit; the parent only steps in if the
	// child is too stuck to do so.
	ctx, cancel := context.WithTimeout(ctx, timeLimit(o)+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if runErr != nil && cmd.Process != nil {
		os.RemoveAll(runDir(workload, cmd.Process.Pid)) // a killed child cannot tidy up after itself
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var cr childResult
	if err := json.Unmarshal(lines[len(lines)-1], &cr.result); err != nil || cr.result.Attempted < 1 {
		return failed("no result line (%v)", runErr)
	}
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &cr.info) != nil {
		cr.info = infoLine{Workload: workload, Seed: o.seed, Env: environment()}
	}
	return cr
}

// runAll runs every workload, each in its own child process, sets times
// over on the same seed, prints every metric by name and unit, and with
// more than one set the spread of each end-to-end metric against its bound.
// A workload that fails is counted and the others still run.
func runAll(o options, sets int) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	results := make(map[string][]summary)           // workload → one entry per set
	var env envInfo                                 // as the first child reports it
	failed := 0
	// An interrupted parent takes its child down with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for set := 0; set < sets; set++ {
		for _, w := range workloadNames {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			cr := runChild(ctx, o, w)
			if set == 0 && w == workloadNames[0] {
				env = cr.info.Env
				b, _ := json.Marshal(env)
				fmt.Printf("env %s\n", b)
			}
			fmt.Printf("\n%s set=%d seed=%d correct=%v attempted=%d failed=%d sim_digest=%.16s",
				w, set+1, o.seed, cr.result.Correct, cr.result.Attempted, cr.result.Failed, cr.info.SimDigest)
			if cr.info.SimChanged != nil {
				fmt.Printf(" sim_changed=%v", *cr.info.SimChanged)
			}
			fmt.Println()
			failed += cr.result.Failed
			results[w] = append(results[w], summary{cr.info.SimDigest, cr.info.SpeedIndex, cr.info.RawWallS, cr.result})
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for _, d := range defs {
				v, ok := cr.result.Metrics[d.name]
				if !ok {
					continue
				}
				fmt.Printf("  %-32s %16.6g %s\n", d.name, v.Value, v.Unit)
				values[w][d.name] = append(values[w][d.name], v.Value)
			}
			// Not metrics, but what a reader needs to take the scaling of
			// the time metrics back out.
			for _, x := range []struct {
				name  string
				value float64
			}{{"info.speed_index", cr.info.SpeedIndex}, {"info.raw_wall_s", cr.info.RawWallS}} {
				if cr.result.Failed == 0 {
					fmt.Printf("  %-32s %16.6g\n", x.name, x.value)
					values[w][x.name] = append(values[w][x.name], x.value)
				}
			}
		}
	}
	if sets > 1 {
		if err := printSpread(append(defs[:len(defs):len(defs)], metricDef{name: "info.speed_index"}, metricDef{name: "info.raw_wall_s"}), values); err != nil {
			return err
		}
	}
	fmt.Println()
	if err := printJSONLine(map[string]any{"env": env, "seed": o.seed, "trace": o.trace, "results": results}); err != nil {
		return err
	}
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

// printSpread prints, per metric and workload, the median, the quartiles and
// the interquartile distance as a share of the median, and flags a spread
// above the bound BENCHMARK.json gives the metric.
func printSpread(defs []metricDef, values map[string]map[string][]float64) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	fmt.Printf("\n%-14s %-32s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloadNames {
		for _, d := range defs {
			xs := values[w][d.name]
			if len(xs) < 2 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			line := fmt.Sprintf("%-14s %-32s %14.6g %14.6g %14.6g %7.1f%%", w, d.name, med, q1, q3, 100*spread)
			if bound, ok := bounds[d.name]; ok {
				line += fmt.Sprintf(" %5.0f%%", 100*bound)
				if spread > bound {
					line += "  SPREAD ABOVE BOUND"
				}
			}
			fmt.Println(line)
		}
	}
	return nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json in
// the working directory.
func readBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
