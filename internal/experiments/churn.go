package experiments

import (
	"strconv"

	"ecnsharp/internal/fault"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

// Churn experiments: graceful degradation under topology faults. The
// paper evaluates ECN# on healthy fabrics; these extension experiments
// stress the other operational reality of datacenters — links flap,
// switches die mid-incast, maintenance rolls through the spine layer —
// and compare how far FCTs degrade from the healthy baseline under the
// DCTCP-default scheme (RED-Tail) versus ECN#. Every scenario must
// complete all surviving flows: recovery is driven entirely by transport
// RTO/backoff plus ECMP re-resolution around dead paths, with no
// scenario-specific help.
//
// All three scenarios share one fabric cell (2 spines x 4 leaves x 4
// hosts per leaf) small enough that the full healthy/churn x scheme grid
// runs in CI, while still giving ECMP two equal-cost paths to lose.

// churnCell builds the shared scenario cell for one scheme.
func churnCell(seed int64, scheme Scheme) RunConfig {
	tcfg := transport.DefaultConfig()
	// Bound RTO retries far above what any scenario's outage needs (the
	// longest is ~1.7 ms against a 2 ms min-RTO, so 2-3 consecutive
	// timeouts), so a regression that strands a flow fails the run
	// instead of hanging it.
	tcfg.MaxConsecTimeouts = 12
	return RunConfig{
		Seed:         seed,
		Topo:         TopoLeafSpine,
		Spines:       2,
		Leaves:       4,
		HostsPerLeaf: 4,
		Scheme:       scheme,
		Transport:    tcfg,
	}
}

// churnSchemes returns the two compared schemes: the DCTCP default
// (RED-Tail at the testbed K) and ECN#.
func churnSchemes() []Scheme {
	s := TestbedSchemes()
	return []Scheme{s[0], s[3]}
}

// FlapSchedule is the churn-flap fault plan: one spine uplink
// (leaf0-spine1) flapping 20 times from early in the run, with ~40 µs
// outages and ~60 µs healthy gaps drawn from a seeded generator.
func FlapSchedule() *fault.Schedule {
	return &fault.Schedule{
		Seed: 11,
		Flaps: []fault.Flap{{
			Link:        "leaf0-spine1",
			Count:       20,
			FirstDownUS: 50,
			MeanDownUS:  40,
			MeanGapUS:   60,
		}},
	}
}

// IncastFailSchedule is the churn-incast fault plan: leaf2 dies at
// 150 µs — mid-burst for a 10 µs incast whose responses drain over
// ~300 µs — and returns at 2 ms, so the responders it strands must ride
// RTO/backoff across a ~1.85 ms blackout.
func IncastFailSchedule() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{AtUS: 150, Action: fault.SwitchFail, Switch: "leaf2"},
		{AtUS: 2_000, Action: fault.SwitchRecover, Switch: "leaf2"},
	}}
}

// MaintenanceSchedule is the churn-maint fault plan: rolling spine
// maintenance, spine0 out during [200, 800] µs and spine1 during
// [1000, 1600] µs. The windows never overlap, so one spine always
// survives and no flow should fail.
func MaintenanceSchedule() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{AtUS: 200, Action: fault.SwitchFail, Switch: "spine0"},
		{AtUS: 800, Action: fault.SwitchRecover, Switch: "spine0"},
		{AtUS: 1_000, Action: fault.SwitchFail, Switch: "spine1"},
		{AtUS: 1_600, Action: fault.SwitchRecover, Switch: "spine1"},
	}}
}

// churnScenario is one named scenario: a traffic pattern plus its fault
// schedule.
type churnScenario struct {
	id, title string
	flows     []workload.FlowSpec
	traffic   Traffic
	faults    *fault.Schedule
}

// cfg is the scenario's run under scheme on the shared cell, healthy until
// its faults are set.
func (s churnScenario) cfg(seed int64, scheme Scheme) RunConfig {
	cfg := churnCell(seed, scheme)
	cfg.Flows, cfg.Traffic = s.flows, s.traffic
	return cfg
}

func flapScenario() churnScenario {
	return churnScenario{
		id:    "churn-flap",
		title: "Churn: flapping spine uplink under web-search load",
		// Long flows pinned through leaf0 in both directions: the
		// web-search load alone leaves the fabric idle enough that a 40 µs
		// outage rarely catches a packet in flight, but these keep windows
		// outstanding across every flap, so the outages visibly cost drops
		// and retransmissions.
		flows: []workload.FlowSpec{
			{Src: 0, Dst: 4, Size: 1_000_000, Start: 0},
			{Src: 5, Dst: 1, Size: 1_000_000, Start: 0},
			{Src: 2, Dst: 12, Size: 1_000_000, Start: 0},
			{Src: 13, Dst: 3, Size: 1_000_000, Start: 0},
		},
		traffic: Traffic{Poisson: Poisson{Workload: workload.WebSearch, Load: 0.4, Count: 80}},
		faults:  FlapSchedule(),
	}
}

func incastScenario() churnScenario {
	return churnScenario{
		id:    "churn-incast",
		title: "Churn: leaf failure mid-incast",
		// Two cross-fabric background flows plus a 12-way incast into host
		// 0; four of the responders sit on leaf2, which dies while their
		// responses are in flight.
		flows: []workload.FlowSpec{
			{Src: 1, Dst: 8, Size: 1_000_000, Start: 0},
			{Src: 12, Dst: 5, Size: 1_000_000, Start: 5 * sim.Microsecond},
		},
		traffic: Traffic{Query: workload.QueryConfig{Senders: hostRange(16)[4:], Receiver: 0,
			At: 10 * sim.Microsecond, MinBytes: 3_000, MaxBytes: 60_000}},
		faults: IncastFailSchedule(),
	}
}

func maintScenario() churnScenario {
	return churnScenario{
		id:      "churn-maint",
		title:   "Churn: rolling spine maintenance under web-search load",
		traffic: Traffic{Poisson: Poisson{Workload: workload.WebSearch, Load: 0.4, Count: 120}},
		faults:  MaintenanceSchedule(),
	}
}

// runChurnScenario runs the schemes × {healthy, churn} grid of the scenario
// on its first seed and renders the figure-style degradation table.
func runChurnScenario(sc Scale, s churnScenario) *Table {
	schemes := churnSchemes()
	g := newGrid(axis(schemes, schemeLabel), []string{"healthy", "churn"}, func(r, c int) RunConfig {
		cfg := s.cfg(sc.Seeds[0], schemes[r])
		if c == 1 {
			cfg.Faults = s.faults
		}
		return cfg
	})
	runGrids(sc.firstSeed(), g)

	t := &Table{
		ID:    s.id,
		Title: s.title,
		Columns: []string{"scheme", "condition", "overall avg (us)", "short p99 (us)",
			"large avg (us)", "query p99 (us)", "degr %", "drops", "timeouts",
			"completed", "failed"},
	}
	for r, scheme := range g.rows {
		healthy := g.at(r, 0).Stats
		for c, condition := range g.cols {
			res := g.at(r, c)
			degr := "-"
			switch {
			case c == 0: // the healthy run is the reference
			case res.Stats.QueryCount > 0:
				// Query workloads (churn-incast) keep their victims out of
				// the background size classes; degrade on the query average.
				degr = f1(100 * (ratio(res.Stats.QueryAvg, healthy.QueryAvg) - 1))
			default:
				degr = f1(100 * (ratio(res.Stats.OverallAvg, healthy.OverallAvg) - 1))
			}
			t.AddRow(scheme, condition,
				f1(res.Stats.OverallAvg), f1(res.Stats.ShortP99),
				f1(res.Stats.LargeAvg), f1(res.Stats.QueryP99), degr,
				strconv.FormatInt(res.Drops, 10), strconv.FormatInt(res.Timeouts, 10),
				strconv.Itoa(res.Completed), strconv.Itoa(res.Failed))
		}
	}
	t.AddNote("degr %% = avg-FCT inflation of the churn run over the same scheme's healthy run (query avg for incast, overall avg otherwise)")
	t.AddNote("faults: %s", describeSchedule(s.faults))
	return t
}

// describeSchedule summarizes a fault plan for table footnotes.
func describeSchedule(s *fault.Schedule) string {
	trs, err := s.Expand()
	if err != nil {
		return err.Error()
	}
	if len(s.Flaps) > 0 {
		f := s.Flaps[0]
		return f.Link + " flaps " + strconv.Itoa(f.Count) + "x (seeded), " +
			strconv.Itoa(len(trs)) + " transitions"
	}
	return strconv.Itoa(len(trs)) + " scheduled transitions"
}

// ChurnFlap runs the flapping-uplink scenario (see FlapSchedule).
func ChurnFlap(sc Scale) *Table { return runChurnScenario(sc, flapScenario()) }

// ChurnIncast runs the mid-incast leaf-failure scenario.
func ChurnIncast(sc Scale) *Table { return runChurnScenario(sc, incastScenario()) }

// ChurnMaint runs the rolling spine-maintenance scenario.
func ChurnMaint(sc Scale) *Table { return runChurnScenario(sc, maintScenario()) }
