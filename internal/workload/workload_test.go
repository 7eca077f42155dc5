package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ecnsharp/internal/dist"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
)

func TestByName(t *testing.T) {
	for _, name := range []string{WebSearch, DataMining} {
		cdf, err := ByName(name)
		if err != nil || cdf == nil {
			t.Errorf("ByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadsAreHeavyTailed(t *testing.T) {
	// Figure 5's point: both distributions are heavy-tailed — the median
	// flow is small but the mean is dominated by the tail.
	for _, tc := range []struct {
		name   string
		median float64
	}{
		{WebSearch, 0}, {DataMining, 0},
	} {
		cdf, _ := ByName(tc.name)
		median := cdf.Quantile(0.5)
		mean := cdf.Mean()
		if mean < 10*median {
			t.Errorf("%s: mean %.0f not ≫ median %.0f; not heavy-tailed", tc.name, mean, median)
		}
	}
	// Data mining is the heavier of the two (VL2 vs DCTCP).
	maxOf := func(c *dist.EmpiricalCDF) float64 { p := c.Points(); return p[len(p)-1].Value }
	if maxOf(DataMiningCDF) <= maxOf(WebSearchCDF) {
		t.Error("data mining max should exceed web search max")
	}
	// Short-flow shares roughly as in the paper's discussion: about half
	// of data-mining flows are tiny (<100 KB), web search ~50-60%.
	if p := probBelow(DataMiningCDF.Quantile, 100_000); p < 0.5 {
		t.Errorf("data mining short-flow share = %v", p)
	}
}

// probBelow inverts a quantile function numerically.
func probBelow(q func(float64) float64, x float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if q(mid) < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func TestStarPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := StarPairs([]int{0, 1, 2}, 9)
	for i := 0; i < 100; i++ {
		src, dst := p(rng)
		if dst != 9 {
			t.Fatalf("dst = %d", dst)
		}
		if src < 0 || src > 2 {
			t.Fatalf("src = %d", src)
		}
	}
}

func TestStarPairsPanics(t *testing.T) {
	for i, f := range []func(){
		func() { StarPairs(nil, 0) },
		func() { StarPairs([]int{1, 2}, 2) }, // receiver among senders
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRandomPairsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := RandomPairs([]int{0, 1, 2, 3})
	for i := 0; i < 1000; i++ {
		src, dst := p(rng)
		if src == dst {
			t.Fatal("src == dst")
		}
	}
}

func TestPoissonFlowsRateMatchesLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cdf, _ := ByName(WebSearch)
	const load = 0.5
	flows := PoissonFlows(rng, PoissonConfig{
		SizeDist:    cdf,
		Load:        load,
		CapacityBps: topology.TenGbps,
		Pairs:       StarPairs([]int{0, 1, 2}, 3),
		FlowCount:   5000,
	})
	if len(flows) != 5000 {
		t.Fatalf("flow count %d", len(flows))
	}
	var bytes int64
	for _, f := range flows {
		bytes += f.Size
		if f.Size < 1 {
			t.Fatal("non-positive flow size")
		}
	}
	span := flows[len(flows)-1].Start
	offered := float64(bytes) * 8 / span.Seconds() / topology.TenGbps
	if math.Abs(offered-load) > 0.1 {
		t.Errorf("offered load = %.3f, want ≈%.2f", offered, load)
	}
}

func TestPoissonFlowsSortedStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cdf, _ := ByName(DataMining)
	flows := PoissonFlows(rng, PoissonConfig{
		SizeDist:    cdf,
		Load:        0.9,
		CapacityBps: topology.TenGbps,
		Pairs:       StarPairs([]int{0}, 1),
		FlowCount:   200,
		Start:       sim.Millisecond,
	})
	prev := sim.Time(0)
	for i, f := range flows {
		if f.Start < prev {
			t.Fatalf("flow %d starts before predecessor", i)
		}
		if f.Start < sim.Millisecond {
			t.Fatalf("flow %d before configured start", i)
		}
		prev = f.Start
	}
}

func TestPoissonFlowsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cdf, _ := ByName(WebSearch)
	base := PoissonConfig{
		SizeDist: cdf, Load: 0.5, CapacityBps: 1e9,
		Pairs: StarPairs([]int{0}, 1), FlowCount: 10,
	}
	for i, mutate := range []func(*PoissonConfig){
		func(c *PoissonConfig) { c.Load = 0 },
		func(c *PoissonConfig) { c.Load = 1.5 },
		func(c *PoissonConfig) { c.FlowCount = 0 },
	} {
		c := base
		mutate(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			PoissonFlows(rng, c)
		}()
	}
}

func TestQueryFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	flows := QueryFlows(rng, QueryConfig{
		Senders:  []int{0, 1, 2},
		Receiver: 9,
		At:       4 * sim.Second,
		MinBytes: 3000,
		MaxBytes: 60000,
	})
	if len(flows) != 3 {
		t.Fatalf("got %d flows", len(flows))
	}
	for _, f := range flows {
		if !f.Query {
			t.Error("query flag not set")
		}
		if f.Start != 4*sim.Second {
			t.Error("start time wrong")
		}
		if f.Size < 3000 || f.Size > 60000 {
			t.Errorf("size %d out of [3KB,60KB]", f.Size)
		}
		if f.Dst != 9 {
			t.Error("receiver wrong")
		}
	}
}

func TestQueryFlowsSizeBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flows := QueryFlows(rng, QueryConfig{
			Senders: []int{0, 1}, Receiver: 2,
			MinBytes: 3000, MaxBytes: 60000,
		})
		for _, fl := range flows {
			if fl.Size < 3000 || fl.Size > 60000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueryFlowsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	QueryFlows(rng, QueryConfig{Senders: []int{0}, MinBytes: 100, MaxBytes: 50})
}

func TestLongFlow(t *testing.T) {
	f := LongFlow(1, 2, sim.Second)
	if f.Src != 1 || f.Dst != 2 || f.Start != sim.Second {
		t.Error("LongFlow fields wrong")
	}
	if f.Size < 1<<30 {
		t.Error("long flow not long")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cdf, _ := ByName(WebSearch)
	specs := PoissonFlows(rng, PoissonConfig{
		SizeDist: cdf, Load: 0.5, CapacityBps: topology.TenGbps,
		Pairs: StarPairs([]int{0, 1, 2}, 7), FlowCount: 200,
	})
	specs = append(specs, QueryFlows(rng, QueryConfig{
		Senders: []int{0, 1}, Receiver: 7, At: sim.Second,
		MinBytes: 3000, MaxBytes: 60000,
	})...)

	var buf bytes.Buffer
	if err := WriteSpecs(&buf, specs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("round trip lost flows: %d vs %d", len(got), len(specs))
	}
	for i := range specs {
		if got[i] != specs[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], specs[i])
		}
	}
}

func TestReadSpecsRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"src,dst,size,start_ns,query\n", // header only -> empty is ok? no: zero flows
		"1,2,notanumber,0,false\n",
		"1,2,1000,-5,false\n",
		"1,2,0,5,false\n",
		"1,2,1000,5\n", // wrong field count
	}
	for i, c := range cases {
		specs, err := ReadSpecs(strings.NewReader(c))
		if err == nil && len(specs) > 0 {
			t.Errorf("case %d: garbage accepted: %v", i, specs)
		}
	}
}

func TestReadSpecsWithoutHeader(t *testing.T) {
	specs, err := ReadSpecs(strings.NewReader("3,7,1500,1000,true\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := FlowSpec{Src: 3, Dst: 7, Size: 1500, Start: 1000, Query: true}
	if len(specs) != 1 || specs[0] != want {
		t.Errorf("got %+v", specs)
	}
}
