package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := Exponential{MeanValue: 100}
	if e.Mean() != 100 {
		t.Fatalf("Mean() = %v", e.Mean())
	}
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += e.Sample(rng)
	}
	got := sum / n
	if math.Abs(got-100) > 2 {
		t.Errorf("sample mean = %v, want ≈100", got)
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := LogNormalFromMoments(39.3, 12.2)
	if math.Abs(ln.Mean()-39.3) > 1e-9 {
		t.Fatalf("analytic mean = %v, want 39.3", ln.Mean())
	}
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = ln.Sample(rng)
	}
	s := Summarize(xs)
	if math.Abs(s.Mean-39.3) > 0.5 {
		t.Errorf("sample mean = %v, want ≈39.3", s.Mean)
	}
	if math.Abs(s.Std-12.2) > 0.5 {
		t.Errorf("sample std = %v, want ≈12.2", s.Std)
	}
	if s.Min <= 0 {
		t.Errorf("log-normal produced non-positive sample %v", s.Min)
	}
}

func TestLogNormalFromMomentsPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for mean <= 0")
		}
	}()
	LogNormalFromMoments(0, 1)
}

func TestEmpiricalCDFValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []CDFPoint
	}{
		{"too few", []CDFPoint{{0, 1}}},
		{"prob out of range", []CDFPoint{{0, 0}, {1, 2}}},
		{"values unsorted", []CDFPoint{{5, 0}, {1, 1}}},
		{"probs decrease", []CDFPoint{{0, 0.5}, {1, 0.2}, {2, 1}}},
		{"not ending at 1", []CDFPoint{{0, 0}, {1, 0.9}}},
	}
	for _, c := range cases {
		if _, err := NewEmpiricalCDF(c.pts); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := NewEmpiricalCDF([]CDFPoint{{0, 0}, {10, 1}}); err != nil {
		t.Errorf("valid CDF rejected: %v", err)
	}
}

func TestMustEmpiricalCDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustEmpiricalCDF([]CDFPoint{{0, 0}})
}

func TestEmpiricalCDFQuantile(t *testing.T) {
	c := MustEmpiricalCDF([]CDFPoint{{0, 0}, {10, 0.5}, {100, 1}})
	tests := []struct{ u, want float64 }{
		{0, 0}, {0.25, 5}, {0.5, 10}, {0.75, 55}, {1, 100},
	}
	for _, tc := range tests {
		if got := c.Quantile(tc.u); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.u, got, tc.want)
		}
	}
	if c.Min() != 0 || c.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
	// Mean of the piecewise-linear distribution: 0.5·avg(0,10) + 0.5·avg(10,100).
	want := 0.5*5 + 0.5*55
	if math.Abs(c.Mean()-want) > 1e-9 {
		t.Errorf("Mean() = %v, want %v", c.Mean(), want)
	}
}

func TestEmpiricalCDFSampleBoundsProperty(t *testing.T) {
	c := MustEmpiricalCDF([]CDFPoint{{100, 0.1}, {500, 0.6}, {900, 1}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			v := c.Sample(rng)
			if v < c.Min() || v > c.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalCDFSampleMeanMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustEmpiricalCDF([]CDFPoint{{0, 0}, {10, 0.5}, {100, 1}})
	sum := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		sum += c.Sample(rng)
	}
	got := sum / n
	if math.Abs(got-c.Mean()) > 0.5 {
		t.Errorf("sample mean %v vs analytic %v", got, c.Mean())
	}
}

func TestEmpiricalCDFFirstKnotMass(t *testing.T) {
	// A CDF starting above probability 0 puts an atom at the first value.
	c := MustEmpiricalCDF([]CDFPoint{{100, 0.5}, {200, 1}})
	rng := rand.New(rand.NewSource(6))
	atMin := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.Sample(rng) == 100 {
			atMin++
		}
	}
	frac := float64(atMin) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("atom mass at first knot = %v, want ≈0.5", frac)
	}
	want := 0.5*100 + 0.5*150
	if math.Abs(c.Mean()-want) > 1e-9 {
		t.Errorf("Mean() = %v, want %v", c.Mean(), want)
	}
}

func TestPointsReturnsCopy(t *testing.T) {
	c := MustEmpiricalCDF([]CDFPoint{{0, 0}, {10, 1}})
	pts := c.Points()
	pts[0].Value = 999
	if c.Points()[0].Value == 999 {
		t.Error("Points() exposes internal state")
	}
}
