// Package dist provides the random distributions and statistics helpers
// used by workload generation, RTT-variation modelling and metrics
// reporting. All sampling takes an explicit *rand.Rand so that simulations
// remain deterministic for a given seed.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sampler draws values from some distribution.
type Sampler interface {
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) float64
	// Mean returns the distribution mean.
	Mean() float64
}

// Exponential is an exponential distribution with the given Mean.
type Exponential struct{ MeanValue float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() * e.MeanValue }

// Mean returns the configured mean.
func (e Exponential) Mean() float64 { return e.MeanValue }

// LogNormal is a log-normal distribution parameterized by the underlying
// normal's mu and sigma.
type LogNormal struct{ Mu, Sigma float64 }

// LogNormalFromMoments builds a LogNormal with the requested mean and
// standard deviation of the *log-normal* variate itself.
func LogNormalFromMoments(mean, std float64) LogNormal {
	if mean <= 0 {
		panic("dist: log-normal mean must be positive")
	}
	v := std * std
	m2 := mean * mean
	sigma2 := math.Log(1 + v/m2)
	return LogNormal{
		Mu:    math.Log(mean) - float64(sigma2/2),
		Sigma: math.Sqrt(sigma2),
	}
}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + float64(l.Sigma*rng.NormFloat64()))
}

// Mean returns the analytic mean exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + float64(l.Sigma*l.Sigma/2)) }

// CDFPoint is one knot of an empirical CDF.
type CDFPoint struct {
	Value float64 // sample value
	Prob  float64 // cumulative probability in [0,1], nondecreasing
}

// EmpiricalCDF samples by inverse-transform over a piecewise-linear CDF.
// This mirrors how ns-3-based datacenter studies encode the web-search and
// data-mining flow-size distributions.
type EmpiricalCDF struct {
	points []CDFPoint
	mean   float64
}

// NewEmpiricalCDF validates and builds an empirical CDF. Points must be
// sorted by value with nondecreasing probabilities ending at 1.
func NewEmpiricalCDF(points []CDFPoint) (*EmpiricalCDF, error) {
	if len(points) < 2 {
		return nil, errors.New("dist: empirical CDF needs at least two points")
	}
	for i, p := range points {
		// NaN fails every ordered comparison, so it would sail through the
		// range and sortedness checks below; reject non-finite knots first.
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) || math.IsNaN(p.Prob) {
			return nil, fmt.Errorf("dist: CDF point %v/%v not finite at index %d", p.Value, p.Prob, i)
		}
		if p.Prob < 0 || p.Prob > 1 {
			return nil, fmt.Errorf("dist: CDF prob %v out of range at index %d", p.Prob, i)
		}
		if i > 0 {
			if p.Value < points[i-1].Value {
				return nil, fmt.Errorf("dist: CDF values not sorted at index %d", i)
			}
			if p.Prob < points[i-1].Prob {
				return nil, fmt.Errorf("dist: CDF probs decrease at index %d", i)
			}
		}
	}
	if points[len(points)-1].Prob != 1 {
		return nil, errors.New("dist: CDF must end at probability 1")
	}
	c := &EmpiricalCDF{points: append([]CDFPoint(nil), points...)}
	c.mean = c.computeMean()
	return c, nil
}

// MustEmpiricalCDF is NewEmpiricalCDF that panics on error; for package-level
// distribution tables validated by tests.
func MustEmpiricalCDF(points []CDFPoint) *EmpiricalCDF {
	c, err := NewEmpiricalCDF(points)
	if err != nil {
		panic(err)
	}
	return c
}

// computeMean integrates the piecewise-linear inverse CDF.
func (c *EmpiricalCDF) computeMean() float64 {
	mean := 0.0
	for i := 1; i < len(c.points); i++ {
		p0, p1 := c.points[i-1], c.points[i]
		dp := p1.Prob - p0.Prob
		mean += float64(dp * (p0.Value + p1.Value) / 2)
	}
	// Probability mass below the first knot (if the CDF does not start at 0)
	// is attributed to the first value.
	mean += float64(c.points[0].Prob * c.points[0].Value)
	return mean
}

// Sample draws by inverse transform with linear interpolation between knots.
func (c *EmpiricalCDF) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	return c.Quantile(u)
}

// Quantile returns the value at cumulative probability u in [0,1].
func (c *EmpiricalCDF) Quantile(u float64) float64 {
	pts := c.points
	if u <= pts[0].Prob {
		return pts[0].Value
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Prob >= u })
	if i >= len(pts) {
		return pts[len(pts)-1].Value
	}
	p0, p1 := pts[i-1], pts[i]
	if p1.Prob == p0.Prob {
		return p1.Value
	}
	f := (u - p0.Prob) / (p1.Prob - p0.Prob)
	return p0.Value + float64(f*(p1.Value-p0.Value))
}

// Mean returns the analytic mean of the piecewise-linear distribution.
func (c *EmpiricalCDF) Mean() float64 { return c.mean }

// Points returns a copy of the CDF knots (for plotting, e.g. Figure 5).
func (c *EmpiricalCDF) Points() []CDFPoint { return append([]CDFPoint(nil), c.points...) }

// Truncated returns a copy of the distribution with all mass above max
// collapsed onto max (and the mean recomputed accordingly). Experiments
// use this to bound warm-up transients that a long steady-state run would
// wash out.
func (c *EmpiricalCDF) Truncated(max float64) *EmpiricalCDF {
	pts := c.Points()
	for i := range pts {
		if pts[i].Value > max {
			pts[i].Value = max
		}
	}
	return MustEmpiricalCDF(pts)
}
