package experiments

import (
	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
)

// Ablation dissects ECN♯'s design choices (§3.3's "why ECN♯ works") by
// knocking out one mechanism at a time and rerunning the microscopic
// incast scenario of Figure 10:
//
//   - full ECN♯ — both conditions, sqrt marking ramp (the paper).
//   - no-instantaneous — persistent marking only (ins_target effectively
//     infinite). Without the aggressive instantaneous component the burst
//     overflows the buffer, exactly the CoDel failure mode.
//   - no-persistent — instantaneous marking only (ECN♯ degenerates to
//     TCN/DCTCP-RED at the tail threshold). The standing queue returns.
//   - fixed-interval — persistent marking without the
//     pst_interval/sqrt(count) ramp. The queue drains more slowly, so the
//     standing level sits higher.
func Ablation(sc Scale) *Table {
	rtt := LeafSpineRTT()
	base := core.Params{
		InsTarget:   rtt.Percentile(90),
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}

	noInst := base
	noInst.InsTarget = sim.Second // never reached by a datacenter queue

	fixed := base
	fixed.Schedule = core.FixedSchedule

	variants := []Scheme{
		ECNSharpScheme(base),
		{Kind: SchemeECNSharp, Label: "no-instantaneous", Params: noInst},
		TCNScheme(base.InsTarget), // instantaneous only
		{Kind: SchemeECNSharp, Label: "fixed-interval", Params: fixed},
	}
	variants[0].Label = "ECN# (full)"
	variants[2].Label = "no-persistent"

	// The microscopic trace is a single-seed view, like Figure 10.
	g := newGrid(axis(variants, schemeLabel), oneCol, func(r, _ int) RunConfig {
		return incastCfg(variants[r], 100, sc.FlowCount, true)
	})
	runGrids(sc.firstSeed(), g)
	t := records("ablation", "ECN# design ablation on the Fig-10 incast scenario", []string{"variant"},
		[]column{colStanding, colBurstPeak, colDrops, colTimeouts, colQueryP99}, g)
	t.AddNote("expected: only the full design gets both a low standing queue and zero drops")
	return t
}
