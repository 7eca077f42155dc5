package experiments

import (
	"fmt"

	"ecnsharp/internal/sim"
	"ecnsharp/internal/workload"
)

// ScaleCell is one point of the scale benchmark: a leaf-spine fabric sized
// to a host-count tier. The tiers are chosen so the 1k cell fits a laptop
// smoke run, the 10k cell is the committed-baseline workhorse, and the
// 100k cell exercises the memory ceiling (informational: its wall clock is
// runner-class dependent).
type ScaleCell struct {
	Hosts        int
	Spines       int
	Leaves       int
	HostsPerLeaf int
}

// ScaleCells returns the benchmark tiers, smallest first.
func ScaleCells() []ScaleCell {
	return []ScaleCell{
		{Hosts: 1_024, Spines: 4, Leaves: 16, HostsPerLeaf: 64},
		{Hosts: 10_240, Spines: 8, Leaves: 64, HostsPerLeaf: 160},
		{Hosts: 100_000, Spines: 16, Leaves: 250, HostsPerLeaf: 400},
	}
}

// ScaleCellByHosts finds the tier with the given host count.
func ScaleCellByHosts(hosts int) (ScaleCell, error) {
	for _, c := range ScaleCells() {
		if c.Hosts == hosts {
			return c, nil
		}
	}
	return ScaleCell{}, fmt.Errorf("experiments: no scale tier with %d hosts (have 1024, 10240, 100000)", hosts)
}

// ScaleCellConfig builds the benchmark run for one tier: every host sends
// one 30 KB flow to its counterpart one leaf over ((i+hostsPerLeaf) mod
// hosts), so all traffic crosses the fabric (and therefore every shard
// boundary), with arrivals staggered over ~1 ms by a fixed prime stride so
// the start-of-run burst doesn't collapse into a single synchronized
// incast. The traffic is a pure function of the dimensions — no RNG — so
// any two runs of the same cell simulate identical work and events/sec is
// comparable across shard counts.
func ScaleCellConfig(c ScaleCell, shards int) RunConfig {
	flows := make([]workload.FlowSpec, c.Hosts)
	for i := 0; i < c.Hosts; i++ {
		flows[i] = workload.FlowSpec{
			Src:   i,
			Dst:   (i + c.HostsPerLeaf) % c.Hosts,
			Size:  30_000,
			Start: sim.Time(i%997) * sim.Microsecond,
		}
	}
	return RunConfig{
		Seed:         1,
		Topo:         TopoLeafSpine,
		Spines:       c.Spines,
		Leaves:       c.Leaves,
		HostsPerLeaf: c.HostsPerLeaf,
		Shards:       shards,
		Scheme:       TestbedSchemes()[3],
		Flows:        flows,
	}
}
