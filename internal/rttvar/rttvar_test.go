package rttvar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecnsharp/internal/sim"
)

// TestTable1Calibration checks the component model reproduces Table 1's
// measured statistics within a few percent — the repository's stand-in
// for the paper's testbed measurements.
func TestTable1Calibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := []struct {
		mean, std, p90, p99 float64
	}{
		{39.3, 12.2, 59.0, 79.0},
		{63.9, 18.3, 87.0, 121.0},
		{69.3, 18.8, 91.0, 130.0},
		{99.2, 23.0, 129.0, 161.0},
		{105.5, 23.6, 138.0, 178.0},
	}
	cases := Table1Cases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, want %d", len(cases), len(want))
	}
	for i, c := range cases {
		s := MeasureCase(rng, c, 30000)
		if rel(s.Mean, want[i].mean) > 0.05 {
			t.Errorf("%s: mean %.1f, want ≈%.1f", c.Name, s.Mean, want[i].mean)
		}
		if rel(s.Std, want[i].std) > 0.15 {
			t.Errorf("%s: std %.1f, want ≈%.1f", c.Name, s.Std, want[i].std)
		}
		if rel(s.P90, want[i].p90) > 0.12 {
			t.Errorf("%s: p90 %.1f, want ≈%.1f", c.Name, s.P90, want[i].p90)
		}
		if rel(s.P99, want[i].p99) > 0.15 {
			t.Errorf("%s: p99 %.1f, want ≈%.1f", c.Name, s.P99, want[i].p99)
		}
	}
	// Headline: up to ~2.68× RTT variation across cases.
	first := MeasureCase(rng, cases[0], 30000)
	last := MeasureCase(rng, cases[4], 30000)
	v := last.Mean / first.Mean
	if v < 2.4 || v > 3.0 {
		t.Errorf("variation = %.2f, want ≈2.68", v)
	}
}

func rel(got, want float64) float64 { return math.Abs(got-want) / want }

func TestRTTDistributionBounds(t *testing.T) {
	d := NewRTTDistribution(70*sim.Microsecond, 210*sim.Microsecond)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		v := d.Sample(rng)
		if v < d.Min || v > d.Max {
			t.Fatalf("sample %v out of [%v,%v]", v, d.Min, d.Max)
		}
	}
	if v := float64(d.Max) / float64(d.Min); v != 3 {
		t.Errorf("variation = %v", v)
	}
}

func TestRTTDistributionMatchesLeafSpineStatistics(t *testing.T) {
	// §5.3: "RTT has 3× variations and varies from 80µs to 240µs. The
	// average RTT here is ~137µs and 90th percentile is ~220µs."
	d := NewRTTDistribution(80*sim.Microsecond, 240*sim.Microsecond)
	mean := d.Mean().Micros()
	p90 := d.Percentile(90).Micros()
	if math.Abs(mean-137) > 5 {
		t.Errorf("mean = %.1fµs, want ≈137µs", mean)
	}
	if math.Abs(p90-220) > 5 {
		t.Errorf("p90 = %.1fµs, want ≈220µs", p90)
	}
	// And the shape is long-tailed: mean well below the midpoint.
	if mean >= 160 {
		t.Errorf("mean %.1f not below midpoint; distribution not long-tailed", mean)
	}
}

func TestNewVariation(t *testing.T) {
	d := NewVariation(70*sim.Microsecond, 5)
	if d.Max != 350*sim.Microsecond {
		t.Errorf("max = %v", d.Max)
	}
}

func TestRTTDistributionPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewRTTDistribution(0, sim.Microsecond) },
		func() { NewRTTDistribution(2*sim.Microsecond, sim.Microsecond) },
		func() { NewVariation(sim.Microsecond, 0.5) },
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

func TestPercentileMonotoneProperty(t *testing.T) {
	d := NewRTTDistribution(70*sim.Microsecond, 350*sim.Microsecond)
	f := func(a, b uint8) bool {
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return d.Percentile(pa) <= d.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssigner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewRTTDistribution(80*sim.Microsecond, 240*sim.Microsecond)
	a := NewAssigner(d, 10*sim.Microsecond, rng)
	for i := 0; i < 1000; i++ {
		rtt, extra := a.Next()
		if extra < 0 {
			t.Fatal("negative extra delay")
		}
		if rtt != 10*sim.Microsecond+extra && extra != 0 {
			t.Fatalf("rtt %v != path + extra %v", rtt, extra)
		}
		if rtt < 10*sim.Microsecond {
			t.Fatal("rtt below path RTT")
		}
	}
}

func TestAssignerClampsToPathRTT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Path RTT above the whole distribution: extra must always be 0.
	d := NewRTTDistribution(80*sim.Microsecond, 240*sim.Microsecond)
	a := NewAssigner(d, sim.Millisecond, rng)
	for i := 0; i < 100; i++ {
		rtt, extra := a.Next()
		if extra != 0 || rtt != sim.Millisecond {
			t.Fatalf("clamping failed: rtt=%v extra=%v", rtt, extra)
		}
	}
}

func TestAssignerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewAssigner(NewVariation(sim.Microsecond, 2), -1, nil)
}

func TestCaseSampleAlwaysPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range Table1Cases() {
		for i := 0; i < 1000; i++ {
			if v := c.Sample(rng); v <= 0 {
				t.Fatalf("%s: non-positive RTT %v", c.Name, v)
			}
		}
	}
}
