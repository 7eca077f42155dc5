package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/workload"
)

// TestSchemeFactoriesShareECNSharpParams: an ECN♯ scheme validates its
// parameters once, when compiled, and the markers it builds share that one
// copy instead of holding their own.
func TestSchemeFactoriesShareECNSharpParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []Scheme{SimECNSharp(), {Kind: SchemeECNSharpProb, Label: "ECN#-prob", Params: SimECNSharp().Params,
		Ramp: Ramp{TMin: 6 * sim.Microsecond, Pmax: 0.25}}} {
		build := s.Factory(rng)
		params := func(a aqm.AQM) uintptr {
			return reflect.ValueOf(a).Elem().FieldByName("core").FieldByName("params").Pointer()
		}
		if a, b := params(build(0)), params(build(1)); a == 0 || a != b {
			t.Errorf("%s: two markers of one compile hold parameters at %#x and %#x, want one shared copy", s.Label, a, b)
		}
		bad := s
		bad.Params.PstTarget = 0
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: compiling invalid parameters did not panic", s.Label)
				}
			}()
			bad.Factory(rng)
		}()
	}
}

func TestSchemeFactories(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		s    Scheme
		want string
	}{
		{REDTail(250_000), "*aqm.REDInstant"},
		{REDAvg(80_000), "*aqm.REDInstant"},
		{REDFixed(100_000), "*aqm.REDInstant"},
		{CoDelScheme(85*sim.Microsecond, 200*sim.Microsecond), "*aqm.CoDel"},
		{TCNScheme(150 * sim.Microsecond), "*aqm.TCN"},
		{SimECNSharp(), "*aqm.ECNSharp"},
		{Scheme{Kind: SchemeRED, Label: "RED", KBytes: 300_000,
			Ramp: Ramp{KminBytes: 7_500, Pmax: 0.25}}, "*aqm.RED"},
		{Scheme{Kind: SchemeECNSharpProb, Label: "ECN#-prob", Params: SimECNSharp().Params,
			Ramp: Ramp{TMin: 6 * sim.Microsecond, Pmax: 0.25}}, "*aqm.ECNSharpProb"},
	}
	kinds := map[SchemeKind]bool{}
	for _, c := range cases {
		kinds[c.s.Kind] = true
		a := c.s.Factory(rng)(0)
		got := typeName(a)
		if got != c.want {
			t.Errorf("%s: factory built %s, want %s", c.s.Label, got, c.want)
		}
		if c.s.Label == "" {
			t.Errorf("scheme %v has no label", c.s.Kind)
		}
		// A tunable scheme reports its own values under its dim names, and
		// applying them back changes nothing.
		dims := c.s.TunedDims()
		names := TunedDimNames(c.s.Kind)
		if len(dims) != len(names) {
			t.Fatalf("%s: %d dims, %d names", c.s.Label, len(dims), len(names))
		}
		vals := make([]TunedValue, len(dims))
		for i, d := range dims {
			if d.Name != names[i] {
				t.Errorf("%s: dim %d is %q, TunedDimNames says %q", c.s.Label, i, d.Name, names[i])
			}
			vals[i] = TunedValue{Name: d.Name, Value: d.Value}
		}
		if got, err := ApplyTuned(c.s, vals); err != nil || got != c.s {
			t.Errorf("%s: applying its own values gave %+v, %v", c.s.Label, got, err)
		}
	}
	if len(kinds) != int(numSchemeKinds) {
		t.Errorf("table covers %d of %d scheme kinds", len(kinds), numSchemeKinds)
	}
}

// starRun executes one testbed configuration pooled over seeds.
func starRun(scheme Scheme, wl string, load float64,
	rtt rttvar.RTTDistribution, sc Scale) LoadPool {
	return seedsRun(sc, starCfg(scheme, wl, load, rtt, sc))
}

// seedsRun runs cfg once per seed of sc as a one-point figure grid and
// pools the runs.
func seedsRun(sc Scale, cfg RunConfig) LoadPool {
	g := newGrid(oneCol, oneCol, func(int, int) RunConfig { return cfg })
	runGrids(sc, g)
	return g.at(0, 0)
}

// parseF reads a rendered table cell back as a number (0 when it is not one).
func parseF(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%f", &v)
	return v
}

func typeName(a aqm.AQM) string {
	switch a.(type) {
	case *aqm.REDInstant:
		return "*aqm.REDInstant"
	case *aqm.CoDel:
		return "*aqm.CoDel"
	case *aqm.TCN:
		return "*aqm.TCN"
	case *aqm.ECNSharp:
		return "*aqm.ECNSharp"
	case *aqm.RED:
		return "*aqm.RED"
	case *aqm.ECNSharpProb:
		return "*aqm.ECNSharpProb"
	default:
		return "?"
	}
}

func TestDeriveSchemes(t *testing.T) {
	rtt := rttvar.NewVariation(70*sim.Microsecond, 3)
	tail, avg, sharp := DeriveSchemes(rtt, topology.TenGbps)
	// Tail threshold comes from the 90th percentile, avg from the mean,
	// so tail > avg always.
	if tail.KBytes <= avg.KBytes {
		t.Errorf("tail K %d <= avg K %d", tail.KBytes, avg.KBytes)
	}
	// For 70-210 µs, p90 ≈ 192.5 µs => K ≈ 240 KB (paper: 250 KB).
	if tail.KBytes < 220_000 || tail.KBytes > 260_000 {
		t.Errorf("tail K = %d, want ≈240KB", tail.KBytes)
	}
	if err := sharp.Params.Validate(); err != nil {
		t.Errorf("derived ECN# params invalid: %v", err)
	}
	if sharp.Params.InsTarget != rtt.Percentile(90) {
		t.Error("ins_target not the p90 RTT")
	}
}

func TestTestbedSchemesMatchPaper(t *testing.T) {
	s := TestbedSchemes()
	if len(s) != 4 {
		t.Fatalf("%d schemes", len(s))
	}
	if s[0].KBytes != 250_000 || s[1].KBytes != 80_000 {
		t.Error("RED thresholds not the paper's 250/80 KB")
	}
	if s[2].Target != 85*sim.Microsecond || s[2].Interval != 200*sim.Microsecond {
		t.Error("CoDel params not the paper's 85/200 µs")
	}
	p := s[3].Params
	if p.InsTarget != 200*sim.Microsecond || p.PstTarget != 85*sim.Microsecond ||
		p.PstInterval != 200*sim.Microsecond {
		t.Error("ECN# params not the paper's 200/85/200 µs")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Errorf("%d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Brief == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, err := ByID(e.ID); err != nil {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("n=%d", 5)
	s := tb.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio(…, 0) should be 0")
	}
}

func TestTable1Shape(t *testing.T) {
	tb, stats := Table1(1, 2000)
	if len(stats) != 5 || len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Means strictly increase down the table and reach ≈2.5-2.8× case 1.
	for i := 1; i < 5; i++ {
		if stats[i].Mean <= stats[i-1].Mean {
			t.Errorf("case %d mean %.1f not above case %d", i, stats[i].Mean, i-1)
		}
	}
	v := stats[4].Mean / stats[0].Mean
	if v < 2.3 || v > 3.1 {
		t.Errorf("max variation %.2f, want ≈2.68", v)
	}
}

func TestFig5Shape(t *testing.T) {
	tb := Fig5()
	if len(tb.Rows) < 20 {
		t.Errorf("fig5 rows = %d", len(tb.Rows))
	}
	if len(tb.Notes) != 2 {
		t.Errorf("fig5 notes = %d", len(tb.Notes))
	}
}

// TestECNSharpBeatsTailForShortFlows is the repository's core claim check
// (Figure 6): at a moderate load with 3× RTT variation, ECN♯ must deliver
// clearly lower short-flow FCT than DCTCP-RED-Tail while keeping
// large-flow FCT within a reasonable band.
func TestECNSharpBeatsTailForShortFlows(t *testing.T) {
	sc := SmokeScale()
	sc.FlowCount = 250
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	schemes := TestbedSchemes()
	tail := starRun(schemes[0], workload.WebSearch, 0.6, rtt, sc)
	sharp := starRun(schemes[3], workload.WebSearch, 0.6, rtt, sc)

	if sharp.Stats.ShortAvg >= tail.Stats.ShortAvg {
		t.Errorf("ECN# short avg %.1f not below Tail %.1f",
			sharp.Stats.ShortAvg, tail.Stats.ShortAvg)
	}
	if sharp.Stats.ShortP99 >= tail.Stats.ShortP99 {
		t.Errorf("ECN# short p99 %.1f not below Tail %.1f",
			sharp.Stats.ShortP99, tail.Stats.ShortP99)
	}
	// Large flows: comparable throughput (within 15%).
	if sharp.Stats.LargeAvg > tail.Stats.LargeAvg*1.15 {
		t.Errorf("ECN# large avg %.1f much worse than Tail %.1f",
			sharp.Stats.LargeAvg, tail.Stats.LargeAvg)
	}
}

// TestREDAvgHurtsLargeFlows checks the other half of the dilemma: the
// average-RTT threshold throttles large flows relative to Tail.
func TestREDAvgHurtsLargeFlows(t *testing.T) {
	sc := SmokeScale()
	sc.FlowCount = 250
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	schemes := TestbedSchemes()
	tail := starRun(schemes[0], workload.WebSearch, 0.6, rtt, sc)
	avg := starRun(schemes[1], workload.WebSearch, 0.6, rtt, sc)
	if avg.Stats.LargeAvg <= tail.Stats.LargeAvg {
		t.Errorf("RED-AVG large avg %.1f not above Tail %.1f",
			avg.Stats.LargeAvg, tail.Stats.LargeAvg)
	}
}

// TestFig10Shape asserts the microscopic-view claims: ECN♯'s standing
// queue is far below Tail's, and CoDel drops under the burst while ECN♯
// does not.
func TestFig10Shape(t *testing.T) {
	tb, traces := fig10Smoke()
	if len(tb.Rows) != 3 || len(traces) != 3 {
		t.Fatalf("rows=%d traces=%d", len(tb.Rows), len(traces))
	}
	row := map[string][]string{}
	for _, r := range tb.Rows {
		row[r[0]] = r
	}
	standing := func(name string) float64 {
		v, err := strconv.ParseFloat(row[name][1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	drops := func(name string) int {
		v, err := strconv.Atoi(row[name][4])
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if standing("ECN#") > standing("DCTCP-RED-Tail")/2 {
		t.Errorf("ECN# standing queue %.1f not far below Tail %.1f",
			standing("ECN#"), standing("DCTCP-RED-Tail"))
	}
	if drops("CoDel") == 0 {
		t.Error("CoDel did not drop under a 100-flow burst")
	}
	if drops("ECN#") != 0 {
		t.Errorf("ECN# dropped %d packets under the burst", drops("ECN#"))
	}
	// Tail's standing queue sits near its 275 KB threshold (~183 pkts).
	if s := standing("DCTCP-RED-Tail"); s < 120 || s > 250 {
		t.Errorf("Tail standing queue %.1f, want ≈180", s)
	}
}

// TestFig13Shape asserts DWRR policy preservation and ECN♯'s short-flow
// advantage over TCN.
func TestFig13Shape(t *testing.T) {
	_, res := fig13Smoke()
	sharp, tcn := res[0], res[1]
	g := sharp.GoodputGbps
	if g[0] < 4.3 || g[0] > 5.3 {
		t.Errorf("flow1 goodput %.2f, want ≈4.8", g[0])
	}
	for i := 1; i <= 2; i++ {
		if g[i] < 2.0 || g[i] > 2.8 {
			t.Errorf("flow%d goodput %.2f, want ≈2.4", i+1, g[i])
		}
	}
	r := g[0] / (g[1] + g[2])
	if r < 0.85 || r > 1.15 {
		t.Errorf("weight ratio broken: %.2f vs (%.2f+%.2f)", g[0], g[1], g[2])
	}
	if sharp.ShortAvgFCT >= tcn.ShortAvgFCT {
		t.Errorf("ECN# short FCT %.1f not below TCN %.1f",
			sharp.ShortAvgFCT, tcn.ShortAvgFCT)
	}
}

// TestAlg2Exactness requires zero mismatches in the two exact checks.
func TestAlg2Exactness(t *testing.T) {
	tb := Alg2(7)
	for _, row := range tb.Rows {
		switch row[0] {
		case "WrapLT emulated clock vs 64-bit reference",
			"P4 program vs reference Algorithm 1 (bit-exact, tick units)":
			if !strings.HasPrefix(row[1], "0/") {
				t.Errorf("%s: %s", row[0], row[1])
			}
		}
	}
}

// TestRunDeterminism: identical configuration and seed produce identical
// statistics.
func TestRunDeterminism(t *testing.T) {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	sc := SmokeScale()
	sc.FlowCount = 100
	a := starRun(TestbedSchemes()[3], workload.WebSearch, 0.5, rtt, sc)
	b := starRun(TestbedSchemes()[3], workload.WebSearch, 0.5, rtt, sc)
	if a.Stats != b.Stats {
		t.Errorf("non-deterministic results:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Drops != b.Drops || a.Marks != b.Marks {
		t.Error("non-deterministic counters")
	}
}

// TestAverageSeedsAggregates checks the multi-seed pooling plumbing.
func TestAverageSeedsAggregates(t *testing.T) {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	cfg := RunConfig{
		Topo:    TopoStar,
		Hosts:   TestbedHosts,
		Scheme:  TestbedSchemes()[0],
		RTT:     rtt,
		Traffic: Traffic{Poisson: Poisson{Workload: workload.WebSearch, Load: 0.4, Count: 80}},
	}
	r := seedsRun(Scale{Seeds: []int64{1, 2}}, cfg)
	if r.Injected != 160 {
		t.Errorf("Injected = %d, want 160", r.Injected)
	}
	if r.Completed != 160 {
		t.Errorf("Completed = %d", r.Completed)
	}
	if r.Stats.OverallCount != 160 {
		t.Errorf("OverallCount = %d", r.Stats.OverallCount)
	}
}

// TestGridResultsCarryNoNet: a batch keeps no run's network alive — a grid
// point is its seeds' cell results, pooled, and its first seed's, none of
// which holds a network, while a direct Run of the same configuration still
// returns it.
func TestGridResultsCarryNoNet(t *testing.T) {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	sc := Scale{Seeds: []int64{1, 2}, FlowCount: 20}
	g := newGrid([]string{"a", "b"}, oneCol, func(int, int) RunConfig {
		return starCfg(TestbedSchemes()[3], workload.WebSearch, 0.5, rtt, sc)
	})
	runGrids(sc, g)
	for r := range g.rows {
		pool, first := g.at(r, 0), g.first(r, 0)
		if pool.Completed != 40 || first.Completed != 20 {
			t.Errorf("grid point %d completed %d flows pooled and %d on seed 1, want 40 and 20",
				r, pool.Completed, first.Completed)
		}
		if first.Cell.Seed != 1 || !slices.Equal(pool.Records[:len(first.Records)], first.Records) {
			t.Errorf("grid point %d: the first seed's run (seed %d) does not lead the pool", r, first.Cell.Seed)
		}
	}
	if Run(g.cfgs[0]).Net == nil {
		t.Error("a direct Run returned no Net")
	}
}

func TestRunFlowsCompleteAndConserve(t *testing.T) {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	sc := SmokeScale()
	sc.FlowCount = 150
	r := starRun(TestbedSchemes()[3], workload.WebSearch, 0.7, rtt, sc)
	if r.Completed != r.Injected {
		t.Errorf("completed %d/%d flows", r.Completed, r.Injected)
	}
	if r.Stats.OverallAvg <= 0 {
		t.Error("zero overall FCT")
	}
}

func TestLeafSpineRunSmoke(t *testing.T) {
	cfg := RunConfig{
		Seed:         1,
		Topo:         TopoLeafSpine,
		Spines:       8,
		Leaves:       8,
		HostsPerLeaf: 16,
		Scheme:       SimECNSharp(),
		RTT:          LeafSpineRTT(),
		Transport:    SimTransport(),
		Traffic:      Traffic{Poisson: Poisson{Workload: workload.WebSearch, Load: 0.4, Count: 150}},
	}
	r := Run(cfg)
	if r.Completed != 150 {
		t.Errorf("completed %d/150 flows across the fabric", r.Completed)
	}
}

// TestAblationShape asserts each knockout loses exactly the property its
// mechanism provides.
func TestAblationShape(t *testing.T) {
	tb := smokeTables("ablation")[0]
	row := map[string][]string{}
	for _, r := range tb.Rows {
		row[r[0]] = r
	}
	getF := func(name string, col int) float64 {
		v, err := strconv.ParseFloat(row[name][col], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Full design: no drops, low standing queue.
	if getF("ECN# (full)", 3) != 0 {
		t.Error("full ECN# dropped packets")
	}
	// Without instantaneous marking the burst causes drops.
	if getF("no-instantaneous", 3) == 0 {
		t.Error("no-instantaneous variant did not drop under the burst")
	}
	// Without persistent marking the standing queue is much higher.
	if getF("no-persistent", 1) < 2*getF("ECN# (full)", 1) {
		t.Error("no-persistent variant did not regrow the standing queue")
	}
	// Without the sqrt ramp the standing queue also stays high.
	if getF("fixed-interval", 1) < 1.5*getF("ECN# (full)", 1) {
		t.Error("fixed-interval variant unexpectedly matched the sqrt ramp")
	}
}

// TestFig2Shape: the threshold-sweep dilemma — large-flow FCT falls as K
// rises (throughput recovers) while short-flow tail FCT is worse at the
// top of the range than at its minimum.
func TestFig2Shape(t *testing.T) {
	tb := smokeTables("fig2")[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	largeAt := func(i int) float64 { return parseF(tb.Rows[i][1]) }
	shortAt := func(i int) float64 { return parseF(tb.Rows[i][2]) }
	if largeAt(4) >= largeAt(0) {
		t.Errorf("large-flow NFCT did not improve with higher K: %v vs %v",
			largeAt(4), largeAt(0))
	}
	minShort := shortAt(0)
	for i := 1; i < 5; i++ {
		if shortAt(i) < minShort {
			minShort = shortAt(i)
		}
	}
	if shortAt(4) <= minShort {
		t.Errorf("short p99 at 250KB (%v) not above the sweep minimum (%v)",
			shortAt(4), minShort)
	}
}

// TestFig3Shape: the short-flow penalty of the tail threshold grows with
// the RTT variation.
func TestFig3Shape(t *testing.T) {
	tb := smokeTables("fig3")[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	first := parseF(tb.Rows[0][4]) // short p99 Tail/AVG at 2x
	last := parseF(tb.Rows[3][4])  // at 5x
	if last <= first {
		t.Errorf("short-flow penalty did not grow with variation: 2x=%v 5x=%v", first, last)
	}
	// Derived thresholds widen with variation.
	if parseF(tb.Rows[3][2]) <= parseF(tb.Rows[0][2]) {
		t.Error("tail threshold did not grow with variation")
	}
}

// TestFig8Runs exercises the larger-variation sweep end to end.
func TestFig8Runs(t *testing.T) {
	sc := SmokeScale()
	sc.FlowCount = 100
	tabs := Fig8(sc)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) != len(sc.Loads) {
			t.Errorf("%s rows = %d", tb.ID, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			for _, cell := range row[1:] {
				if v := parseF(cell); v <= 0 || v > 5 {
					t.Errorf("%s: implausible NFCT %v", tb.ID, v)
				}
			}
		}
	}
}

// TestFig9Shape: on the fabric, ECN# (last column) must beat Tail (first
// scheme) for short flows.
func TestFig9Shape(t *testing.T) {
	tabs := smokeTables("fig9")
	shortTable := tabs[1]
	for _, row := range shortTable.Rows {
		sharp := parseF(row[len(row)-1])
		if sharp >= 1.0 {
			t.Errorf("load %s: ECN# short NFCT %v not below Tail", row[0], sharp)
		}
	}
}

// TestFig11Shape: CoDel must drop at high fanout while ECN# stays clean.
func TestFig11Shape(t *testing.T) {
	sc := SmokeScale()
	sc.Fanouts = []int{150}
	tabs := Fig11(sc)
	dropsTable := tabs[2]
	row := dropsTable.Rows[0]
	codelDrops := parseF(row[2])
	sharpDrops := parseF(row[3])
	if codelDrops == 0 {
		t.Error("CoDel clean at fanout 150")
	}
	if sharpDrops != 0 {
		t.Errorf("ECN# dropped %v packets at fanout 150", sharpDrops)
	}
}

// TestFig12Runs: sensitivity sweeps produce normalized values close to 1
// (the paper's robustness claim, with slack for the reduced scale).
func TestFig12Runs(t *testing.T) {
	sc := SmokeScale()
	sc.FlowCount = 100
	sc.HeavyFlowCount = 60
	tabs := Fig12(sc)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tb := range tabs {
		for _, row := range tb.Rows {
			for _, cell := range row[3:] {
				v := parseF(cell)
				if v < 0.5 || v > 2.0 {
					t.Errorf("%s: normalized FCT %v wildly off 1.0", tb.ID, v)
				}
			}
		}
	}
}

// TestProbExtensionShape: the probabilistic variant keeps ECN#'s burst
// tolerance and does not hurt long-flow fairness or utilization.
func TestProbExtensionShape(t *testing.T) {
	tb := smokeTables("prob")[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[2] != "0" {
			t.Errorf("%s dropped packets", row[0])
		}
		if jain := parseF(row[4]); jain < 0.9 {
			t.Errorf("%s fairness %v", row[0], jain)
		}
		if sum := parseF(row[5]); sum < 9.0 {
			t.Errorf("%s total goodput %v Gbps", row[0], sum)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "demo", Title: "x", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddNote("hello")
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "a,b\n1,2\n") || !strings.Contains(got, "# hello") {
		t.Errorf("csv output:\n%s", got)
	}
	dir := t.TempDir()
	path, err := tb.SaveCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != got {
		t.Error("SaveCSV content differs from WriteCSV")
	}
}

// TestBufferModelsShape: ECN# never needs the extra buffer; CoDel's drops
// are an artifact of how much buffer the architecture concedes.
func TestBufferModelsShape(t *testing.T) {
	tb := smokeTables("buffer")[0]
	for _, row := range tb.Rows {
		scheme, arch, drops := row[0], row[1], parseF(row[4])
		if scheme == "ECN#" && drops != 0 {
			t.Errorf("ECN# dropped %v under %s", drops, arch)
		}
		if scheme == "CoDel" && arch == "static 600pkt/port" && drops == 0 {
			t.Error("CoDel clean under the static buffer; contrast lost")
		}
	}
}

// TestPooledP99DiffersFromAveraged pins the statistical fix in PoolLoad:
// with a skewed two-seed fixture (one seed holds the single outlier), the
// pooled p99 over the combined sample set is far from the old
// average-of-per-seed-p99s, which let one seed's outlier dominate.
func TestPooledP99DiffersFromAveraged(t *testing.T) {
	// The outlier is 1 of 50 records in the skewed seed (2%, above that
	// seed's p99 cut) but 1 of 200 pooled (0.5%, below the pooled cut).
	skewed := metrics.NewFCTCollector()
	for i := 0; i < 49; i++ {
		skewed.Record(10_000, 100*sim.Microsecond, false)
	}
	skewed.Record(10_000, 10_000*sim.Microsecond, false)
	uniform := metrics.NewFCTCollector()
	for i := 0; i < 150; i++ {
		uniform.Record(10_000, 100*sim.Microsecond, false)
	}
	a := CellResult{Stats: skewed.Stats(), Records: skewed.Records()}
	b := CellResult{Stats: uniform.Stats(), Records: uniform.Records()}

	merged := PoolLoad(0.5, []CellResult{a, b})
	if len(merged.Records) != 200 {
		t.Fatalf("pooled %d records, want 200", len(merged.Records))
	}
	averaged := (a.Stats.ShortP99 + b.Stats.ShortP99) / 2
	pooled := merged.Stats.ShortP99
	// The pooled p99 sits near the 100 µs mode while the per-seed average
	// is dragged toward the outlier's ~10 ms.
	if pooled >= averaged/2 {
		t.Errorf("pooled p99 %.1f not clearly below averaged p99 %.1f", pooled, averaged)
	}
	if averaged < 1000 {
		t.Errorf("fixture lost its skew: averaged p99 %.1f", averaged)
	}
}

// TestParallelDeterminism: the same (config, seeds) pair produces an
// identical merged result at any worker-pool width, because results merge
// in submission order and every run owns its engine and RNG.
func TestParallelDeterminism(t *testing.T) {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	sc := SmokeScale()
	sc.FlowCount = 100
	sc.Seeds = []int64{1, 2}
	cfg := starCfg(TestbedSchemes()[3], workload.WebSearch, 0.5, rtt, sc)

	serial := sc
	serial.Parallel = 1
	wide := sc
	wide.Parallel = 8
	a := seedsRun(serial, cfg)
	b := seedsRun(wide, cfg)

	if a.Stats != b.Stats {
		t.Errorf("stats differ across parallelism:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Drops != b.Drops || a.Marks != b.Marks || a.Timeouts != b.Timeouts ||
		a.Retransmits != b.Retransmits || a.Completed != b.Completed ||
		a.Injected != b.Injected {
		t.Error("counters differ across parallelism")
	}
	ar, br := a.Records, b.Records
	if len(ar) != len(br) {
		t.Fatalf("pooled record counts differ: %d vs %d", len(ar), len(br))
	}
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatalf("pooled record %d differs: %+v vs %+v", i, ar[i], br[i])
		}
	}
}

// TestDCQCNExtensionShape checks §3.5's claim: cut-off marking synchronizes
// DCQCN's rate cuts, so its goodput sum sits at least 10% below each
// probabilistic variant's, which reach high utilization without drops;
// every variant still converges (Jain ≥ 0.9), and ECN#-prob must not queue
// much more than plain RED.
func TestDCQCNExtensionShape(t *testing.T) {
	tb := smokeTables("dcqcn")[0]
	row := map[string][]string{}
	for _, r := range tb.Rows {
		row[r[0]] = r
		if jain := parseF(r[2]); jain < 0.9 {
			t.Errorf("%s fairness %v", r[0], jain)
		}
	}
	cutoff := parseF(row["ECN# cut-off"][1])
	for _, name := range []string{"RED 5KB/200KB/25%", "ECN#-prob"} {
		r := row[name]
		if sum := parseF(r[1]); cutoff > 0.9*sum || sum < 8.0 {
			t.Errorf("%s goodput %v: want >= 8 and cut-off %v at least 10%% below", name, sum, cutoff)
		}
		if r[4] != "0" {
			t.Errorf("%s dropped %s packets", name, r[4])
		}
	}
	if parseF(row["ECN#-prob"][3]) > parseF(row["RED 5KB/200KB/25%"][3])*1.5 {
		t.Error("ECN#-prob queues much more than RED")
	}
}

// TestDCQCNRunCountsRateSenders: the cut-off row of the dcqcn table drops
// packets, and a rate-mode sender recovers them go-back-N, so the run's
// Retransmits — summed over the table's Senders, rate flows included —
// must be positive.
func TestDCQCNRunCountsRateSenders(t *testing.T) {
	cfg := dcqcnCfg(dcqcnSchemes()[0])
	cfg.Seed = SmokeScale().Seeds[0]
	r := Run(cfg)
	if r.Drops != 245 {
		t.Errorf("cut-off run dropped %d packets, the golden table says 245", r.Drops)
	}
	if r.Retransmits <= 0 {
		t.Errorf("%d drops but Retransmits = %d", r.Drops, r.Retransmits)
	}
	t.Logf("drops %d, retransmits %d, timeouts %d", r.Drops, r.Retransmits, r.Timeouts)
}
