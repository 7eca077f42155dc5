package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ecnsharp/internal/experiments"
)

// benchmarkJSON is the repository's BENCHMARK.json, read before TestMain
// moves the working directory to a scratch one (runs write their cache
// directories relative to it).
var benchmarkJSON []byte

func TestMain(m *testing.M) {
	var err error
	if benchmarkJSON, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp("", "ecnbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.Chdir(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smoke(workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: runSeconds, trace: trace, smoke: true}
}

// TestSmokeSchema runs every workload at smoke size, untraced and traced,
// and checks what the result line holds: every metric of the mode, named
// and with its unit, nothing else, no failures, and end-to-end values that
// are never zero.
func TestSmokeSchema(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				r, err := execute(smoke(w, trace))
				if err != nil {
					t.Fatal(err)
				}
				res := r.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%q", res.Correct, res.Attempted, res.Failed, r.tally.notes)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: present=%v unit=%q, want unit %q", d.name, ok, v.Unit, d.unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
				}
				if len(r.digest) != 64 {
					t.Errorf("sim_digest %q is not a SHA-256", r.digest)
				}
				if trace {
					checkSpans(t, r.info().Spans, w)
				}
			})
		}
	}
}

// checkSpans reads a span file back: JSON lines, spans of the workload that
// end after they start, and the counts object last.
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := 0
	var last map[string]json.RawMessage
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("span line %q: %v", sc.Bytes(), err)
		}
		if _, isSpan := last["name"]; !isSpan {
			continue
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Workload != workload || s.EndNS < s.StartNS || s.Parent >= s.ID {
			t.Errorf("bad span %+v", s)
		}
		spans++
	}
	if spans == 0 || last["counts"] == nil {
		t.Errorf("%s: %d spans, counts line present: %v", path, spans, last["counts"] != nil)
	}
}

// TestCorruptedReferenceFails shows that the comparisons against a
// reference run are live: with the reference digest corrupted, the
// workload that compares against it reports failures.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range []string{"fabric10k.w2", "sweep.warm"} {
		o := smoke(w, false)
		o.corruptReference = true
		r, err := execute(o)
		if err != nil {
			t.Fatal(err)
		}
		if res := r.result(); res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted reference: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json and the driver's
// tables in step: same workloads, same metrics with the same units and
// directions, bounds within the permitted range, names well formed.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(benchmarkJSON, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, driver sizes for %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %q command %q", doc.Paths, doc.Command)
	}

	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %q, driver runs %q", names, workloadNames)
	}

	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, driver emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: %s/%s/%s listed, driver has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: name %q is malformed", kind, d.name)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q is malformed", w)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1.5, 9, 4, 4, 7}, 2.75, 8},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestFabricInputsFollowSeed: seed 1 is ScaleCellConfig untouched, equal
// seeds give equal inputs, other seeds give other destinations, and every
// flow still crosses leaves.
func TestFabricInputsFollowSeed(t *testing.T) {
	cell, err := experiments.ScaleCellByHosts(1024)
	if err != nil {
		t.Fatal(err)
	}
	base := experiments.ScaleCellConfig(cell, 1).Flows
	if got := fabricInputs(cell, 1, 1).Flows; !reflect.DeepEqual(got, base) {
		t.Error("seed 1 changed ScaleCellConfig's traffic")
	}
	for _, seed := range []int64{2, 7, 16, 17, -3, 1 << 40} {
		a, b := fabricInputs(cell, 1, seed).Flows, fabricInputs(cell, 1, seed).Flows
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: inputs differ between two calls", seed)
		}
		for i, f := range a {
			if f.Src/cell.HostsPerLeaf == f.Dst/cell.HostsPerLeaf {
				t.Fatalf("seed %d flow %d stays on leaf %d", seed, i, f.Src/cell.HostsPerLeaf)
			}
		}
	}
	if reflect.DeepEqual(fabricInputs(cell, 1, 2).Flows, base) {
		t.Error("seed 2 gave seed 1's traffic")
	}
}

// TestSectionPairsOperationsWithProbes: an operation is scaled by the two
// probes around it and by no other, and an unscaled section reports its
// seconds as measured.
func TestSectionPairsOperationsWithProbes(t *testing.T) {
	s := section{scale: true}
	s.probed(probeNominal) // quiet
	s.add(1, 2)
	s.add(3, 4)
	s.probed(probeNominal)
	s.add(1, 2)
	s.probed(3 * probeNominal) // the box slowed down to a half on average
	if got, want := s.seconds(), []float64{1, 3, 0.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("scaled seconds %v, want %v", got, want)
	}
	if got, want := s.cpu(), 2+4+1.0; got != want {
		t.Errorf("scaled cpu %v, want %v", got, want)
	}
	s.scale = false
	if got, want := s.seconds(), s.raw(); !reflect.DeepEqual(got, want) {
		t.Errorf("unscaled seconds %v, measured %v", got, want)
	}
}

// TestTimeLimits: every workload has a limit of three times its expected
// time, traced or not, and never more than a caller allowing three minutes
// can wait for.
func TestTimeLimits(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			limit := timeLimit(options{workload: w, seconds: runSeconds, trace: trace})
			expected := expectedSeconds[w][0]
			if trace {
				expected = expectedSeconds[w][1]
			}
			if want := min(time.Duration(3*expected)*time.Second, 175*time.Second); limit != want {
				t.Errorf("%s trace=%v: limit %v, want %v", w, trace, limit, want)
			}
		}
	}
}
