package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/workload"
)

// Traffic is the generated part of a run's flows, as plain data: a Poisson
// load, fig13's DWRR probes and one incast query burst, each absent while
// its count (or its sender list) is empty. RunConfig.FlowGen emits it after
// RunConfig.Flows.
//
// Probes is fig13's short-flow mix: up to that many flows of 3–60 KB, each
// from a uniform host in [dwrrProbeFrom, last host) to the last host in a
// uniform one of the len(Weights) service classes, arriving
// dwrrDeadline/(Probes+1) apart on average (each gap uniform within ±50 %),
// none later than 5 ms before dwrrDeadline.
type Traffic struct {
	Poisson Poisson              `json:"poisson"`
	Probes  int                  `json:"probes,omitempty"`
	Query   workload.QueryConfig `json:"query"`
}

// Poisson is Count flows arriving as a Poisson process at Load of the
// reference capacity (workload.PoissonFlows), sized by the CDF Workload
// names (workload.ByName), cut at MaxBytes when that is positive. The
// topology places them: on a star every host but the last sends to the
// last, over its one bottleneck link; on a leaf-spine each flow joins a
// uniform pair of distinct hosts, and the capacity is one access link per
// host.
type Poisson struct {
	Workload string  `json:"workload,omitempty"`
	MaxBytes float64 `json:"max_bytes,omitempty"`
	Load     float64 `json:"load,omitempty"`
	Count    int     `json:"count,omitempty"`
}

// TrafficRand returns the stream a run of the given seed draws its traffic
// from, apart from the stream its markers and base RTTs draw from.
func TrafficRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }

// FlowGen returns the run's flows: c.Flows, then c.Traffic's Poisson load,
// probes and query burst, drawn from rng in that order. RunContext calls it
// with TrafficRand(c.Seed).
func (c RunConfig) FlowGen(rng *rand.Rand) []workload.FlowSpec {
	flows, t := slices.Clip(c.Flows), c.Traffic // appends never write into c.Flows
	hosts := c.Hosts
	if c.Topo == TopoLeafSpine {
		hosts = c.Leaves * c.HostsPerLeaf
	}
	last := hosts - 1
	if p := t.Poisson; p.Count > 0 {
		sizes, err := workload.ByName(p.Workload)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		pc := workload.PoissonConfig{SizeDist: sizes, Load: p.Load, CapacityBps: topology.TenGbps, FlowCount: p.Count}
		if p.MaxBytes > 0 {
			pc.SizeDist = sizes.Truncated(p.MaxBytes)
		}
		if c.Topo == TopoLeafSpine {
			pc.RefLinks, pc.Pairs = hosts, workload.RandomPairs(hostRange(hosts))
		} else {
			pc.Pairs = workload.StarPairs(hostRange(last), last)
		}
		flows = append(flows, workload.PoissonFlows(rng, pc)...)
	}
	if t.Probes > 0 {
		start, gap := sim.Time(0), float64(dwrrDeadline)/float64(t.Probes+1)
		for range t.Probes {
			start += sim.Time(gap * (0.5 + float64(rng.Float64())))
			if start >= dwrrDeadline-5*sim.Millisecond {
				break
			}
			flows = append(flows, workload.FlowSpec{
				Size:  3_000 + rng.Int63n(57_001),
				Src:   dwrrProbeFrom + rng.Intn(last-dwrrProbeFrom),
				Dst:   last,
				Start: start,
				Class: rng.Intn(len(c.Weights)),
			})
		}
	}
	if len(t.Query.Senders) > 0 {
		flows = append(flows, workload.QueryFlows(rng, t.Query)...)
	}
	return flows
}
