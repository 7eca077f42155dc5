// Package rttvar models base-RTT variation in datacenters.
//
// Two pieces reproduce the paper's §2.2 measurements and power every other
// experiment:
//
//   - A processing-delay component model (network stack, software load
//     balancer, hypervisor, CPU load) whose five combinations regenerate
//     Table 1 / Figure 1. Each component contributes a right-skewed
//     (log-normal) delay calibrated to the paper's measured means and
//     standard deviations.
//
//   - RTTDistribution, the long-tail base-RTT distribution flows draw from
//     in the evaluation (e.g. 3× variation, 70–210 µs). Experiments derive
//     marking thresholds from its mean and high percentiles exactly the
//     way operators do from PingMesh data (§2.3), and assign each flow a
//     sampled base RTT via netem-style sender-side delay.
package rttvar

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/dist"
	"ecnsharp/internal/sim"
)

// Component is one processing stage on a flow's path.
type Component struct {
	Name string
	// Delay samples the component's contribution in microseconds.
	Delay dist.Sampler
}

// Calibrated component distributions. Means/stds are chosen so the five
// Table 1 combinations land on the paper's measured statistics: the stack
// itself is LogNormal(39.3, 12.2) µs, and each added component contributes
// an independent log-normal whose mean/std are the increments the paper
// measured (e.g. SLB adds ≈24.6 µs mean). Case 4/5 include a small
// interaction term observed in the paper's numbers (components under
// combined load delay each other slightly more than their sum).
func stack() Component {
	return Component{Name: "stack", Delay: dist.LogNormalFromMoments(39.3, 12.2)}
}

func stackHighLoad() Component {
	return Component{Name: "stack(high load)", Delay: dist.LogNormalFromMoments(45.6, 13.3)}
}

func slb() Component {
	return Component{Name: "slb", Delay: dist.LogNormalFromMoments(24.6, 13.6)}
}

func hypervisor() Component {
	return Component{Name: "hypervisor", Delay: dist.LogNormalFromMoments(30.0, 14.3)}
}

// interaction is the extra delay observed when SLB and hypervisor stack up
// (Table 1 case 4: 99.2 µs mean vs 93.9 µs from independent sums).
func interaction() Component {
	return Component{Name: "interaction", Delay: dist.LogNormalFromMoments(5.3, 3.0)}
}

// Case is one row of Table 1: a combination of processing components.
type Case struct {
	Name       string
	Components []Component
}

// Sample draws one end-to-end base RTT in microseconds.
func (c Case) Sample(rng *rand.Rand) float64 {
	total := 0.0
	for _, comp := range c.Components {
		total += comp.Delay.Sample(rng)
	}
	return total
}

// Table1Cases returns the five §2.2 testbed configurations in paper order.
func Table1Cases() []Case {
	return []Case{
		{Name: "Networking Stack", Components: []Component{stack()}},
		{Name: "Networking Stack + SLB", Components: []Component{stack(), slb()}},
		{Name: "Networking Stack + Hypervisor", Components: []Component{stack(), hypervisor()}},
		{Name: "Networking Stack + SLB + Hypervisor",
			Components: []Component{stack(), slb(), hypervisor(), interaction()}},
		{Name: "Networking Stack(high load) + SLB + Hypervisor",
			Components: []Component{stackHighLoad(), slb(), hypervisor(), interaction()}},
	}
}

// CaseStats summarizes sampled RTTs of one case (a Table 1 row).
type CaseStats struct {
	Name    string
	Mean    float64 // µs
	Std     float64 // µs
	P90     float64 // µs
	P99     float64 // µs
	Samples int
}

// MeasureCase draws n RTT samples for the case and summarizes them; the
// paper collects ~3000 samples per configuration.
func MeasureCase(rng *rand.Rand, c Case, n int) CaseStats {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = c.Sample(rng)
	}
	s := dist.Summarize(xs)
	return CaseStats{Name: c.Name, Mean: s.Mean, Std: s.Std, P90: s.P90, P99: s.P99, Samples: n}
}

// rttShape is the normalized long-tail shape of the Figure 1 RTT
// distribution: most mass near the low end with a stretched upper tail.
// For a span [min, max] it yields mean ≈ min + 0.345·(max−min) and
// p90 ≈ min + 0.875·(max−min), matching §5.3's "80–240 µs, average
// ≈137 µs, 90th percentile ≈220 µs".
var rttShape = dist.MustEmpiricalCDF([]dist.CDFPoint{
	{Value: 0.000, Prob: 0.00},
	{Value: 0.100, Prob: 0.15},
	{Value: 0.200, Prob: 0.35},
	{Value: 0.300, Prob: 0.55},
	{Value: 0.400, Prob: 0.70},
	{Value: 0.550, Prob: 0.82},
	{Value: 0.700, Prob: 0.87},
	{Value: 0.875, Prob: 0.90},
	{Value: 0.950, Prob: 0.97},
	{Value: 1.000, Prob: 1.00},
})

// RTTDistribution is the base-RTT distribution flows draw from in an
// experiment, spanning [Min, Max] with the canonical long-tail shape.
// Variation (the paper's RTTmax/RTTmin) is Max/Min.
type RTTDistribution struct {
	Min sim.Time
	Max sim.Time
}

// NewRTTDistribution builds a distribution over [min, max].
func NewRTTDistribution(min, max sim.Time) RTTDistribution {
	if min <= 0 || max < min {
		panic(fmt.Sprintf("rttvar: invalid RTT span [%v, %v]", min, max))
	}
	return RTTDistribution{Min: min, Max: max}
}

// NewVariation builds a distribution with the given minimum RTT and
// variation factor (RTTmax = factor × RTTmin), e.g. NewVariation(70µs, 3).
func NewVariation(min sim.Time, factor float64) RTTDistribution {
	if factor < 1 {
		panic("rttvar: variation factor must be >= 1")
	}
	return NewRTTDistribution(min, sim.Time(float64(min)*factor))
}

// Sample draws one base RTT.
func (d RTTDistribution) Sample(rng *rand.Rand) sim.Time {
	return d.fromShape(rttShape.Sample(rng))
}

// Mean returns the distribution mean.
func (d RTTDistribution) Mean() sim.Time { return d.fromShape(rttShape.Mean()) }

// Percentile returns the p-th percentile (0..100).
func (d RTTDistribution) Percentile(p float64) sim.Time {
	return d.fromShape(rttShape.Quantile(p / 100))
}

func (d RTTDistribution) fromShape(u float64) sim.Time {
	return d.Min + sim.Time(u*float64(d.Max-d.Min))
}

// Assigner hands each flow a base RTT and converts it to the netem-style
// extra one-way sender delay that realizes it on a path whose intrinsic
// RTT (links + switching, no queueing) is PathRTT.
type Assigner struct {
	Dist RTTDistribution
	// PathRTT is the topology's intrinsic base RTT without injected delay.
	PathRTT sim.Time
	rng     *rand.Rand
}

// NewAssigner builds an assigner. Sampled RTTs below PathRTT clamp to it
// (extra delay is never negative).
func NewAssigner(d RTTDistribution, pathRTT sim.Time, rng *rand.Rand) *Assigner {
	if pathRTT < 0 {
		panic("rttvar: negative path RTT")
	}
	return &Assigner{Dist: d, PathRTT: pathRTT, rng: rng}
}

// Next samples a flow's base RTT and returns (baseRTT, extraSenderDelay).
func (a *Assigner) Next() (rtt, extra sim.Time) {
	rtt = a.Dist.Sample(a.rng)
	if rtt <= a.PathRTT {
		return a.PathRTT, 0
	}
	return rtt, rtt - a.PathRTT
}
