package dist

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	Count int
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
	P50   float64
	P90   float64
	P95   float64
	P99   float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		Count: len(sorted),
		Mean:  Mean(sorted),
		Std:   Std(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   PercentileSorted(sorted, 50),
		P90:   PercentileSorted(sorted, 90),
		P95:   PercentileSorted(sorted, 95),
		P99:   PercentileSorted(sorted, 99),
	}
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an already-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := float64(p / 100 * float64(n-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	f := rank - float64(lo)
	return float64(sorted[lo]*(1-f)) + float64(sorted[hi]*f)
}

// CDF returns (value, cumulative probability) pairs for xs, one per sample,
// suitable for plotting an empirical CDF (e.g. Figure 13b).
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, Prob: float64(i+1) / float64(len(sorted))}
	}
	return out
}
