package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ecnsimBin is the binary under test, built once by TestMain.
var ecnsimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ecnsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ecnsimBin = filepath.Join(dir, "ecnsim")
	if out, err := exec.Command("go", "build", "-o", ecnsimBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ecnsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ecnsim runs the binary and returns stdout, stderr and the exit code.
func ecnsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(ecnsimBin, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("ecnsim %v: %v", args, err)
	}
	return so.String(), se.String(), code
}

var (
	completedRE = regexp.MustCompile(`completed (\d+/\d+)`)
	countersRE  = regexp.MustCompile(`drops (\d+), (?:CE )?marks (\d+), timeouts (\d+), retransmits (\d+)`)
)

// numbers reduces either output format (the flag path's single block or
// -spec's per-load block) to what both report: the completed/injected
// count, the three FCT lines and the four switch/transport counters.
func numbers(t *testing.T, out string) []string {
	t.Helper()
	var got []string
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if m := completedRE.FindStringSubmatch(line); m != nil {
			got = append(got, "completed "+m[1])
		} else if strings.HasPrefix(line, "FCT ") {
			got = append(got, line)
		} else if m := countersRE.FindStringSubmatch(line); m != nil {
			got = append(got, "counters "+strings.Join(m[1:], " "))
		}
	}
	if len(got) != 5 {
		t.Fatalf("expected completed + 3 FCT lines + counters, got %q from:\n%s", got, out)
	}
	return got
}

// TestFlagPathEqualsSpec: the flags and a -spec document naming the same
// values resolve, run and pool through one path, so they report the same
// numbers — single seed and pooled over two.
func TestFlagPathEqualsSpec(t *testing.T) {
	for _, tc := range []struct {
		name, seedFlag, seedArg, specSeeds string
	}{
		{"one seed", "-seed", "3", "[3]"},
		{"two seeds pooled", "-seeds", "1,2", "[1,2]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, topo := range []string{"star", "leafspine"} {
				flagOut, stderr, code := ecnsim(t, "-topo", topo, "-scheme", "red-tail", "-workload", "websearch",
					"-load", "0.6", "-flows", "60", "-rtt-min", "80", "-rtt-variation", "4", tc.seedFlag, tc.seedArg)
				if code != 0 {
					t.Fatalf("flag path exit %d: %s", code, stderr)
				}
				spec := filepath.Join(t.TempDir(), "spec.json")
				doc := fmt.Sprintf(`{"topo":%q,"scheme":"red-tail","workload":"websearch","loads":[0.6],"flows":60,"rtt_min_us":80,"rtt_variation":4,"seeds":%s}`,
					topo, tc.specSeeds)
				if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
					t.Fatal(err)
				}
				specOut, stderr, code := ecnsim(t, "-spec", spec)
				if code != 0 {
					t.Fatalf("-spec exit %d: %s", code, stderr)
				}
				f, s := numbers(t, flagOut), numbers(t, specOut)
				for i := range f {
					if f[i] != s[i] {
						t.Errorf("%s: flag path and -spec disagree:\n flags %s\n spec  %s", topo, f[i], s[i])
					}
				}
			}
		})
	}
}

// TestSaveFlowsChangesNothing: -save-flows is an output flag. With one
// seed, given as -seed or -seeds, it writes that seed's flows and the
// statistics are those of the same run without it; with several seeds,
// which no one file can hold, it is a one-line usage error.
func TestSaveFlowsChangesNothing(t *testing.T) {
	for _, seedArgs := range [][]string{{"-seeds", "4"}, {"-seed", "4"}} {
		args := append([]string{"-flows", "100"}, seedArgs...)
		plain, stderr, code := ecnsim(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		path := filepath.Join(t.TempDir(), "f.csv")
		saved, stderr, code := ecnsim(t, append(args, "-save-flows", path)...)
		if code != 0 {
			t.Fatalf("%v -save-flows: exit %d: %s", args, code, stderr)
		}
		p, s := numbers(t, plain), numbers(t, saved)
		for i := range p {
			if p[i] != s[i] {
				t.Errorf("%v: -save-flows changed the statistics:\n without %s\n with    %s", args, p[i], s[i])
			}
		}
	}

	path := filepath.Join(t.TempDir(), "f.csv")
	stdout, stderr, code := ecnsim(t, "-flows", "100", "-seeds", "1,2", "-save-flows", path)
	if code != 2 || stdout != "" {
		t.Errorf("-seeds 1,2 -save-flows: exit %d with stdout %q, want 2 and nothing run", code, stdout)
	}
	oneLine(t, "-seeds 1,2 -save-flows", stderr, "one seed")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-seeds 1,2 -save-flows wrote %s", path)
	}

	// -replay brings its own flows: -save-flows next to it used to be
	// dropped silently (exit 0, nothing written); it is a usage error.
	replay := filepath.Join(t.TempDir(), "replay.csv")
	if _, stderr, code := ecnsim(t, "-flows", "20", "-save-flows", replay); code != 0 {
		t.Fatalf("writing the replay file: exit %d: %s", code, stderr)
	}
	stdout, stderr, code = ecnsim(t, "-replay", replay, "-save-flows", path)
	if code != 2 || stdout != "" {
		t.Errorf("-replay -save-flows: exit %d with stdout %q, want 2 and nothing run", code, stdout)
	}
	oneLine(t, "-replay -save-flows", stderr, "-replay")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-replay -save-flows wrote %s", path)
	}
}

// TestBadFlagsAreUsageErrors: a value the spec layer rejects is a one-line
// "ecnsim: <message>" on stderr and exit 2 — the message -spec gives for
// the same value — never a panic trace from inside a worker. So is a flag
// set explicitly that the chosen path would not read.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	valid := filepath.Join(t.TempDir(), "ok.json")
	if err := os.WriteFile(valid, []byte(`{"loads":[0.6],"flows":20,"seeds":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		spec string // the same bad value as a sweep spec
		want string
	}{
		{[]string{"-load", "1.5"}, `{"loads":[1.5]}`, "load 1.5 outside (0, 1]"},
		{[]string{"-load", "0"}, `{"loads":[0]}`, "load 0 outside (0, 1]"},
		{[]string{"-rtt-variation", "0.5"}, `{"rtt_variation":0.5}`, "rtt_variation must be >= 1"},
		{[]string{"-rtt-min", "-1"}, `{"rtt_min_us":-1}`, "rtt_min_us must be positive"},
		// Values whose times would not fit in sim.Time.
		{[]string{"-rtt-variation", "1e300"}, `{"rtt_variation":1e300}`, "rtt_variation 1e+300 puts the largest RTT"},
		{[]string{"-rtt-min", "1e300"}, `{"rtt_min_us":1e300}`, "rtt_min_us 1e+300 outside [0.001, 1e+06]"},
		{[]string{"-load", "1e-300"}, `{"loads":[1e-300]}`, "load 1e-300 below the minimum of 0.001"},
		{[]string{"-flows", "-3"}, `{"flows":-3}`, "flows must be positive"},
		{[]string{"-flows", "2000000000"}, `{"flows":2000000000}`, "flows 2000000000 above the per-cell cap of 100000"},
		{[]string{"-shards", "-1"}, `{"shards":-1}`, "shards must be >= 0"},
		{[]string{"-scheme", "pie9"}, `{"scheme":"pie9"}`, `unknown scheme "pie9"`},
		{[]string{"-workload", "cachefollower"}, `{"workload":"cachefollower"}`, `unknown workload "cachefollower"`},
		{[]string{"-topo", "ring"}, `{"topo":"ring"}`, `unknown topology "ring"`},
		// An explicit zero on the command line is a value, not an omission:
		// only a spec document defaults it.
		{[]string{"-flows", "0"}, "", "flows must be positive (got 0)"},
		{[]string{"-rtt-min", "0"}, "", "rtt_min_us must be positive (got 0)"},
		// Flags the chosen path does not read; SPEC names a valid sweep spec.
		{[]string{"-spec", "SPEC", "-faults", "/nonexistent.json", "-replay", "/nonexistent.csv", "-report", "-seeds", "1,2,3"},
			"", "-faults is not read by the -spec path"},
		{[]string{"-spec", "SPEC", "-seeds", "1,2,3"}, "", "-seeds is not read by the -spec path"},
		{[]string{"-spec", "SPEC", "-trace", "x.jsonl"}, "", `has no "trace"`},
		{[]string{"-tune", "tune.json", "-report"}, "", "-report is not read by the -tune path"},
		{[]string{"-spec", "SPEC", "-tune", "tune.json"}, "", "-tune is not read by the -spec path"},
		{[]string{"-tune", "tune.json", "-load", "0.5"}, "", "-load is not read by the -tune path"},
		{[]string{"-tune-out", "out.json"}, "", "-tune-out is not read by the flag path"},
		{[]string{"-tune-cache", "cache"}, "", "-tune-cache is not read by the flag path"},
	} {
		for i, a := range tc.args {
			if a == "SPEC" {
				tc.args[i] = valid
			}
		}
		_, stderr, code := ecnsim(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		oneLine(t, fmt.Sprint(tc.args), stderr, tc.want)
		if tc.spec == "" {
			continue
		}
		spec := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(spec, []byte(tc.spec), 0o644); err != nil {
			t.Fatal(err)
		}
		_, specErr, specCode := ecnsim(t, "-spec", spec)
		if specCode != 2 || specErr != stderr {
			t.Errorf("%v: -spec of the same value exits %d with %q, flags with %q", tc.args, specCode, specErr, stderr)
		}
	}
}

// TestSweepCellCapIsUsageError: a spec whose loads × seeds grid exceeds
// the per-sweep cap is a one-line usage error, nothing run.
func TestSweepCellCapIsUsageError(t *testing.T) {
	seeds := strings.TrimSuffix(strings.Repeat("1,", 513), ",")
	spec := filepath.Join(t.TempDir(), "big.json")
	if err := os.WriteFile(spec, []byte(`{"loads":[0.3,0.6],"seeds":[`+seeds+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := ecnsim(t, "-spec", spec)
	if code != 2 || stdout != "" {
		t.Errorf("exit %d with stdout %q, want 2 and nothing run", code, stdout)
	}
	oneLine(t, "2 loads × 513 seeds", stderr, "1026 cells, above the per-sweep cap of 1024")
}

// TestRunFailureIsOneLine: a run that fails (here its -timeout expires) is
// one "ecnsim: <run>: <error>" line and exit 1 on the flag path, the line
// -spec prints for the same run, never a panic trace.
func TestRunFailureIsOneLine(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"flows":20}`), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "ecnsim: ECN# load=0.50 seed=1: context deadline exceeded\n"
	for _, args := range [][]string{{"-flows", "20", "-timeout", "1ns"}, {"-spec", spec, "-timeout", "1ns"}} {
		stdout, stderr, code := ecnsim(t, args...)
		if code != 1 || stdout != "" || stderr != want {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1, nothing and %q", args, code, stdout, stderr, want)
		}
	}
}

// TestReportLeavesStdoutAlone: -report adds one JSON line on stderr and
// changes no byte of stdout. On -spec it sums the report over the cells,
// so a two-seed spec prints the line the flag path prints for those seeds.
func TestReportLeavesStdoutAlone(t *testing.T) {
	args := []string{"-topo", "leafspine", "-flows", "40", "-seeds", "1,2", "-shards", "2"}
	plain, _, code := ecnsim(t, args...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	reported, stderr, code := ecnsim(t, append(args, "-report")...)
	if code != 0 {
		t.Fatalf("-report: exit %d: %s", code, stderr)
	}
	if reported != plain {
		t.Errorf("-report changed stdout:\n without:\n%s\n with:\n%s", plain, reported)
	}
	var r struct {
		Windows      uint64   `json:"windows"`
		DomainEvents []uint64 `json:"domain_events"`
		HandoffMsgs  uint64   `json:"handoff_msgs"`
		Refills      uint64   `json:"refills"`
		RadixMoves   uint64   `json:"radix_moves"`
		MarkKinds    []uint64 `json:"mark_kinds"`
		Pools        []struct {
			Gets, News int64
		} `json:"pools"`
	}
	if strings.Count(stderr, "\n") != 1 || json.Unmarshal([]byte(stderr), &r) != nil {
		t.Fatalf("stderr is not one JSON line:\n%s", stderr)
	}
	if r.Windows == 0 || len(r.DomainEvents) != 16 || r.HandoffMsgs == 0 || len(r.Pools) != 16 {
		t.Errorf("report %+v: want windows, 16 domains, handoff messages and 16 pools", r)
	}
	if r.Refills == 0 || r.RadixMoves < r.Refills || len(r.MarkKinds) != 4 {
		t.Errorf("report %+v: want refills, at least one move per refill and 4 mark kinds", r)
	}
	var gets, news int64
	for _, p := range r.Pools {
		gets += p.Gets
		news += p.News
	}
	if gets == 0 || news == 0 || news > gets {
		t.Errorf("pools got %d packets and allocated %d: want both positive, news <= gets", gets, news)
	}

	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"topo":"leafspine","flows":40,"seeds":[1,2],"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, specErr, code := ecnsim(t, "-spec", spec, "-report"); code != 0 || specErr != stderr {
		t.Errorf("-spec -report: exit %d, line\n%s want the flag path's\n%s", code, specErr, stderr)
	}
}

// oneLine asserts stderr is exactly one "ecnsim: ..." line containing want.
func oneLine(t *testing.T, what, stderr, want string) {
	t.Helper()
	if !strings.HasPrefix(stderr, "ecnsim: ") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, want) {
		t.Errorf("%s: stderr is not the one-line error mentioning %q:\n%s", what, want, stderr)
	}
}

// TestFaultsNamingMissingPartsAreUsageErrors: a -faults schedule that
// parses but names a link or switch the chosen topology lacks is rejected
// before any run starts — one line, exit 2 — not by a panic inside a worker.
func TestFaultsNamingMissingPartsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		topo, sched, want string
	}{
		{"leafspine", `{"events":[{"at_us":100,"action":"link-down","link":"leaf0-spine9"}]}`, `fault: unknown link "leaf0-spine9"`},
		{"leafspine", `{"events":[{"at_us":100,"action":"switch-fail","switch":"spine77"}]}`, `fault: unknown switch "spine77"`},
		{"star", `{"events":[{"at_us":100,"action":"link-down","link":"leaf0-spine1"}]}`, `fault: unknown link "leaf0-spine1"`},
	} {
		path := filepath.Join(t.TempDir(), "faults.json")
		if err := os.WriteFile(path, []byte(tc.sched), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, seeds := range []string{"1", "1,2"} {
			stdout, stderr, code := ecnsim(t, "-topo", tc.topo, "-flows", "20", "-seeds", seeds, "-faults", path)
			if code != 2 || stdout != "" {
				t.Errorf("%s -seeds %s: exit %d with stdout %q, want 2 and nothing run", tc.topo, seeds, code, stdout)
			}
			oneLine(t, tc.topo+" -seeds "+seeds, stderr, tc.want)
		}
	}
}

// TestUncreatableTraceFileFails: a -trace file that cannot be created
// fails the command — one line, exit 1, nothing simulated — on the
// single-seed path and the per-job (-seeds) path alike.
func TestUncreatableTraceFileFails(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, tc := range []struct {
		seeds, file string
	}{
		{"1", "x.jsonl"},
		{"1,2", "x.job0.jsonl"},
	} {
		stdout, stderr, code := ecnsim(t, "-flows", "20", "-seeds", tc.seeds, "-trace", filepath.Join(missing, "x.jsonl"))
		if code != 1 || stdout != "" {
			t.Errorf("-seeds %s: exit %d with stdout %q, want 1 and nothing run", tc.seeds, code, stdout)
		}
		oneLine(t, "-seeds "+tc.seeds, stderr, filepath.Join(missing, tc.file))
	}
}

// TestFlagTraceEqualsSpecTrace: the trace the flag path streams to the
// file of seed i is byte for byte the one -spec writes for cell i, at any
// -parallel, in JSONL and (a .csv name) in CSV: both stream the same
// events through one writer per run.
func TestFlagTraceEqualsSpecTrace(t *testing.T) {
	for _, ext := range []string{".jsonl", ".csv"} {
		t.Run(ext, func(t *testing.T) { flagTraceEqualsSpecTrace(t, ext) })
	}
}

func flagTraceEqualsSpecTrace(t *testing.T, ext string) {
	read := func(dir string) [2][]byte {
		var files [2][]byte
		for i := range files {
			b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("x.job%d%s", i, ext)))
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Fatalf("%s: trace of seed index %d is empty", dir, i)
			}
			files[i] = b
		}
		return files
	}
	var flagTraces [][2][]byte
	for _, parallel := range []string{"1", "2"} {
		dir := t.TempDir()
		if _, stderr, code := ecnsim(t, "-topo", "leafspine", "-load", "0.6", "-flows", "50", "-seeds", "1,2",
			"-parallel", parallel, "-trace", filepath.Join(dir, "x"+ext),
			"-trace-events", "mark,drop,flow_finish", "-trace-sample", "2"); code != 0 {
			t.Fatalf("flag path -parallel %s: exit %d: %s", parallel, code, stderr)
		}
		flagTraces = append(flagTraces, read(dir))
	}

	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	doc := `{"topo":"leafspine","loads":[0.6],"flows":50,"seeds":[1,2],"trace":{"events":"mark,drop,flow_finish","sample":2}}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := ecnsim(t, "-spec", spec, "-trace", filepath.Join(dir, "x"+ext)); code != 0 {
		t.Fatalf("-spec exit %d: %s", code, stderr)
	}
	specTraces := read(dir)

	for i := range specTraces {
		if !bytes.Equal(flagTraces[0][i], flagTraces[1][i]) {
			t.Errorf("seed index %d: -parallel 1 and -parallel 2 wrote different traces", i)
		}
		if !bytes.Equal(flagTraces[0][i], specTraces[i]) {
			t.Errorf("seed index %d: flag path wrote %d trace bytes, -spec %d, not the same", i,
				len(flagTraces[0][i]), len(specTraces[i]))
		}
	}
	if bytes.Equal(specTraces[0], specTraces[1]) {
		t.Error("seeds 1 and 2 wrote the same trace")
	}
	if csv := bytes.HasPrefix(specTraces[0], []byte("ev,")); csv != (ext == ".csv") {
		t.Errorf("-spec wrote %s with a CSV header: %t", ext, csv)
	}
}
