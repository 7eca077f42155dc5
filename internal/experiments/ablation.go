package experiments

import (
	"fmt"

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

	t := &Table{
		ID:    "ablation",
		Title: "ECN# design ablation on the Fig-10 incast scenario",
		Columns: []string{"variant", "standing queue(pkts)", "burst peak(pkts)",
			"drops", "timeouts", "query p99(us)"},
	}
	// The knockout runs are independent; batch them through the harness.
	// The microscopic trace is a single-seed view, like Figure 10.
	one := sc
	one.Seeds = sc.Seeds[:1]
	cfgs := make([]RunConfig, len(variants))
	for i, v := range variants {
		cfgs[i] = incastCfg(v, 100, sc.FlowCount, true)
	}
	results := RunAll(one, cfgs)
	for i, v := range variants {
		r := results[i]
		standing, _ := queueAroundBurst(r.QueueSamples)
		t.AddRow(v.Label, f1(standing), fmt.Sprintf("%d", r.MaxQueuePkts),
			fmt.Sprintf("%d", r.Drops), fmt.Sprintf("%d", r.Timeouts),
			f1(r.Stats.QueryP99))
	}
	t.AddNote("expected: only the full design gets both a low standing queue and zero drops")
	return t
}
