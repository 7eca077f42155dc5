package tune

import (
	"fmt"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/topology"
)

// PenaltyScore is the finite worst-case score assigned when a candidate
// produced no usable flow records (every real run completes flows, so
// this only guards degenerate configurations). It is finite — not +Inf —
// because Result must round-trip through JSON.
const PenaltyScore = 1e18

// Objective scores one candidate's pooled per-load results; lower is
// better. Score must be a pure function of the pools — deterministic,
// finite — so tuning stays reproducible from (spec, seed).
type Objective struct {
	// Name is the spec name that selected the scoring rule.
	Name string
	// Score maps pooled results to the scalar being minimized.
	Score func(pools []experiments.LoadPool) float64
}

// ObjectiveByName resolves a Spec's objective name: "short-p99" (pooled
// 99th-percentile short-flow FCT in µs, averaged over load points) is the
// paper's headline tail metric; "slowdown" is mean FCT slowdown versus
// the ideal transfer time at 10 Gb/s over the base RTT; "mix" is
// p99Weight·short-p99 + avgWeight·overall-avg. rttMinUS parameterizes the
// slowdown ideal.
func ObjectiveByName(name string, rttMinUS, p99Weight, avgWeight float64) (Objective, error) {
	switch name {
	case "short-p99":
		return Objective{Name: name, Score: func(pools []experiments.LoadPool) float64 {
			return meanOverLoads(pools, func(s metrics.FCTStats) float64 {
				if s.ShortCount == 0 {
					return PenaltyScore
				}
				return s.ShortP99
			})
		}}, nil
	case "slowdown":
		return Objective{Name: name, Score: func(pools []experiments.LoadPool) float64 {
			total, n := 0.0, 0
			for _, pool := range pools {
				for _, r := range pool.Records {
					total += slowdown(r, rttMinUS)
					n++
				}
			}
			if n == 0 {
				return PenaltyScore
			}
			return total / float64(n)
		}}, nil
	case "mix":
		return Objective{Name: name, Score: func(pools []experiments.LoadPool) float64 {
			return meanOverLoads(pools, func(s metrics.FCTStats) float64 {
				if s.OverallCount == 0 {
					return PenaltyScore
				}
				return float64(p99Weight*s.ShortP99) + float64(avgWeight*s.OverallAvg)
			})
		}}, nil
	default:
		return Objective{}, fmt.Errorf("tune: unknown objective %q (want short-p99, slowdown or mix)", name)
	}
}

// meanOverLoads averages a pooled statistic across load points.
func meanOverLoads(pools []experiments.LoadPool, stat func(metrics.FCTStats) float64) float64 {
	if len(pools) == 0 {
		return PenaltyScore
	}
	total := 0.0
	for _, pool := range pools {
		total += stat(pool.Stats)
	}
	return total / float64(len(pools))
}

// slowdown is one flow's FCT divided by its ideal completion time:
// serialization at the fabric rate plus one base RTT.
func slowdown(r metrics.FCTRecord, rttMinUS float64) float64 {
	idealUS := float64(float64(r.Size+int64(packet.HeaderSize))*8/topology.TenGbps*1e6) + rttMinUS
	if idealUS <= 0 {
		return PenaltyScore
	}
	return r.FCT.Micros() / idealUS
}
