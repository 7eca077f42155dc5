// Package workload generates the traffic the paper evaluates with: flows
// sized by the web-search (DCTCP) and data-mining (VL2) distributions of
// Figure 5, arriving as a Poisson process tuned to a target load, plus the
// incast query bursts of §5.4 and long-lived flows for the scheduler
// experiment.
package workload

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/dist"
	"ecnsharp/internal/sim"
)

// WebSearchCDF is the web-search flow-size distribution from the DCTCP
// paper as distributed with the open-source traffic generator the testbed
// uses ([8, 18] in the paper); sizes in bytes. Heavy-tailed: ~53% of flows
// are under 100 KB but most bytes come from multi-megabyte flows.
var WebSearchCDF = dist.MustEmpiricalCDF([]dist.CDFPoint{
	{Value: 6_000, Prob: 0.00},
	{Value: 10_000, Prob: 0.15},
	{Value: 20_000, Prob: 0.20},
	{Value: 30_000, Prob: 0.30},
	{Value: 50_000, Prob: 0.40},
	{Value: 80_000, Prob: 0.53},
	{Value: 200_000, Prob: 0.60},
	{Value: 1_000_000, Prob: 0.70},
	{Value: 2_000_000, Prob: 0.80},
	{Value: 5_000_000, Prob: 0.90},
	{Value: 10_000_000, Prob: 0.97},
	{Value: 30_000_000, Prob: 1.00},
})

// DataMiningCDF is the data-mining flow-size distribution from the VL2
// paper ([22]); sizes in bytes. Even heavier-tailed than web search: half
// the flows are under ~1.1 KB while the top few percent reach 100 MB+.
var DataMiningCDF = dist.MustEmpiricalCDF([]dist.CDFPoint{
	{Value: 100, Prob: 0.00},
	{Value: 180, Prob: 0.10},
	{Value: 250, Prob: 0.20},
	{Value: 560, Prob: 0.30},
	{Value: 900, Prob: 0.40},
	{Value: 1_100, Prob: 0.50},
	{Value: 60_000, Prob: 0.60},
	{Value: 90_000, Prob: 0.70},
	{Value: 350_000, Prob: 0.80},
	{Value: 5_800_000, Prob: 0.90},
	{Value: 28_300_000, Prob: 0.95},
	{Value: 100_000_000, Prob: 0.98},
	{Value: 1_000_000_000, Prob: 1.00},
})

// Named workloads.
const (
	WebSearch  = "websearch"
	DataMining = "datamining"
)

// ByName returns the named flow-size CDF.
func ByName(name string) (*dist.EmpiricalCDF, error) {
	switch name {
	case WebSearch:
		return WebSearchCDF, nil
	case DataMining:
		return DataMiningCDF, nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}

// FlowSpec describes one flow to inject.
type FlowSpec struct {
	Src   int      `json:"src,omitempty"`
	Dst   int      `json:"dst,omitempty"`
	Size  int64    `json:"size,omitempty"`
	Start sim.Time `json:"start,omitempty"`
	// Query tags incast query flows so metrics can separate them from
	// background traffic (Figure 11).
	Query bool `json:"query,omitempty"`
	// Class is the service class the flow's packets carry: the switch
	// queue they join under a multi-queue scheduler (Figure 13).
	Class int `json:"class,omitempty"`
}

// PairPicker selects a (src, dst) host pair for each flow.
type PairPicker func(rng *rand.Rand) (src, dst int)

// StarPairs picks a uniform sender from senders with a fixed receiver —
// the testbed pattern (7 senders, 1 receiver).
func StarPairs(senders []int, receiver int) PairPicker {
	if len(senders) == 0 {
		panic("workload: no senders")
	}
	for _, s := range senders {
		if s == receiver {
			panic("workload: receiver among senders")
		}
	}
	return func(rng *rand.Rand) (int, int) {
		return senders[rng.Intn(len(senders))], receiver
	}
}

// RandomPairs picks uniform distinct (src, dst) pairs from hosts — the
// leaf-spine pattern.
func RandomPairs(hosts []int) PairPicker {
	if len(hosts) < 2 {
		panic("workload: need at least two hosts")
	}
	return func(rng *rand.Rand) (int, int) {
		src := hosts[rng.Intn(len(hosts))]
		for {
			dst := hosts[rng.Intn(len(hosts))]
			if dst != src {
				return src, dst
			}
		}
	}
}

// PoissonConfig parameterizes load-driven flow generation.
type PoissonConfig struct {
	// SizeDist samples flow sizes in bytes.
	SizeDist dist.Sampler
	// Load is the target utilization of the reference capacity in (0, 1].
	Load float64
	// CapacityBps is the reference link capacity the load is defined
	// against: the bottleneck link in a star, one access link per host in
	// a fabric (multiply by host count via RefLinks).
	CapacityBps float64
	// RefLinks scales capacity for multi-bottleneck fabrics (1 for star;
	// number of hosts for all-to-all, since each flow loads one source and
	// one destination access link).
	RefLinks int
	// Pairs picks flow endpoints.
	Pairs PairPicker
	// Start is when the first arrival may occur.
	Start sim.Time
	// FlowCount is the number of flows to generate.
	FlowCount int
}

// PoissonFlows draws FlowCount flows with exponential interarrivals so the
// mean offered load matches Load, following the methodology of §5.1: flow
// arrival rate λ = Load × Capacity / mean flow size.
func PoissonFlows(rng *rand.Rand, cfg PoissonConfig) []FlowSpec {
	if cfg.Load <= 0 || cfg.Load > 1 {
		panic(fmt.Sprintf("workload: load %v out of (0,1]", cfg.Load))
	}
	if cfg.FlowCount <= 0 {
		panic("workload: FlowCount must be positive")
	}
	refLinks := cfg.RefLinks
	if refLinks <= 0 {
		refLinks = 1
	}
	meanSize := cfg.SizeDist.Mean()
	if meanSize <= 0 {
		panic("workload: size distribution mean must be positive")
	}
	ratePerSec := cfg.Load * cfg.CapacityBps * float64(refLinks) / (meanSize * 8)
	meanGapNs := float64(sim.Second) / ratePerSec

	flows := make([]FlowSpec, 0, cfg.FlowCount)
	t := cfg.Start
	for i := 0; i < cfg.FlowCount; i++ {
		t += sim.Time(rng.ExpFloat64() * meanGapNs)
		src, dst := cfg.Pairs(rng)
		size := int64(cfg.SizeDist.Sample(rng))
		if size < 1 {
			size = 1
		}
		flows = append(flows, FlowSpec{Src: src, Dst: dst, Size: size, Start: t})
	}
	return flows
}

// QueryConfig parameterizes an incast query burst (§5.4): N senders each
// send one flow to the aggregator at the same instant, sized uniformly in
// [MinBytes, MaxBytes].
type QueryConfig struct {
	Senders  []int    `json:"senders,omitempty"`
	Receiver int      `json:"receiver,omitempty"`
	At       sim.Time `json:"at,omitempty"`
	MinBytes int64    `json:"min_bytes,omitempty"`
	MaxBytes int64    `json:"max_bytes,omitempty"`
}

// QueryFlows generates one synchronized incast burst. The paper draws
// query sizes uniformly from 3 KB to 60 KB.
func QueryFlows(rng *rand.Rand, cfg QueryConfig) []FlowSpec {
	if cfg.MaxBytes < cfg.MinBytes {
		panic("workload: query MaxBytes < MinBytes")
	}
	flows := make([]FlowSpec, 0, len(cfg.Senders))
	for _, s := range cfg.Senders {
		size := cfg.MinBytes
		if cfg.MaxBytes > cfg.MinBytes {
			size += rng.Int63n(cfg.MaxBytes - cfg.MinBytes + 1)
		}
		flows = append(flows, FlowSpec{
			Src: s, Dst: cfg.Receiver, Size: size, Start: cfg.At, Query: true,
		})
	}
	return flows
}

// LongFlowBytes is the size of a long-lived flow: effectively unbounded for
// any experiment's duration.
const LongFlowBytes = 1 << 40

// LongFlow returns a long-lived flow spec, the elephants of the incast and
// DWRR goodput experiments (Figures 10 and 13a).
func LongFlow(src, dst int, start sim.Time) FlowSpec {
	return FlowSpec{Src: src, Dst: dst, Size: LongFlowBytes, Start: start}
}
