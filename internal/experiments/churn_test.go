package experiments

// Churn-scenario acceptance: every fault scenario completes every
// surviving flow with no panics, hangs or lost completions; the traced
// flapping-uplink run is byte-identical across sharded worker counts; and
// killing every path fails flows via RTO exhaustion instead of
// deadlocking the run.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"ecnsharp/internal/fault"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

// TestChurnScenariosComplete: all three churn scenarios complete every
// flow under both compared schemes — transport RTO/backoff plus ECMP
// re-resolution recovers everything, with zero failed flows.
func TestChurnScenariosComplete(t *testing.T) {
	for _, s := range []churnScenario{flapScenario(), incastScenario(), maintScenario()} {
		for _, scheme := range churnSchemes() {
			cfg := s.cfg(1, scheme)
			cfg.Faults = s.faults
			r := Run(cfg)
			if r.Completed != r.Injected || r.Failed != 0 {
				t.Errorf("%s/%s: completed=%d failed=%d of %d injected",
					s.id, scheme.Label, r.Completed, r.Failed, r.Injected)
			}
			// The fault must visibly bite: lost packets surface as drops
			// (drained queues), RTOs, or retransmits of blackholed bytes.
			if r.Drops == 0 && r.Timeouts == 0 && r.Retransmits == 0 {
				t.Errorf("%s/%s: no drops, timeouts or retransmits — the fault did not bite",
					s.id, scheme.Label)
			}
		}
	}
}

// TestChurnTablesRender: the registry entries produce non-empty tables
// (healthy and churn rows for both schemes).
func TestChurnTablesRender(t *testing.T) {
	tbl := smokeTables("churn-maint")[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 rows (2 schemes x healthy/churn), got %d:\n%s", len(tbl.Rows), tbl)
	}
	if !strings.Contains(tbl.String(), "ECN#") {
		t.Errorf("table missing ECN# rows:\n%s", tbl)
	}
}

// TestChurnRunsOnTheHarness: the churn figures are harness jobs like every
// other figure's runs — -progress sees each of the 2 schemes x
// {healthy, churn} runs, and an exceeded -timeout aborts naming the run.
func TestChurnRunsOnTheHarness(t *testing.T) {
	sc := SmokeScale()
	var labels []string
	sc.Progress = func(p harness.Progress) { labels = append(labels, p.Label) }
	ChurnIncast(sc)
	if len(labels) != 4 {
		t.Errorf("progress saw %d runs, want 4: %q", len(labels), labels)
	}

	sc = SmokeScale()
	sc.Timeout = time.Nanosecond
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "seed=1") || !strings.Contains(msg, context.DeadlineExceeded.Error()) {
			t.Errorf("1 ns timeout: recovered %q, want a panic naming the timed-out run", msg)
		}
	}()
	ChurnIncast(sc)
}

// TestShardedChurnFlapByteIdentical: the traced flapping-uplink churn run
// — fault, reroute, queue and flow events together — is byte-identical
// (trace, FCT record stream, counters) at Shards 0, 1, 2, 4 and 8. This
// is the churn extension of TestShardedByteIdenticalToSerial: transitions
// are pre-scheduled per domain, so worker count must not reorder a single
// event.
func TestShardedChurnFlapByteIdentical(t *testing.T) {
	s := flapScenario()
	render := func(shards int) (string, string) {
		var buf bytes.Buffer
		jw := trace.NewJSONLWriter(&buf)
		cfg := s.cfg(1, TestbedSchemes()[3])
		cfg.Shards = shards
		cfg.Faults = s.faults
		cfg.NewTracer = func(context.Context, int64) trace.Tracer { return jw }
		res := Run(cfg)
		if err := jw.Flush(); err != nil {
			t.Fatalf("shards=%d: trace flush: %v", shards, err)
		}
		return buf.String(), renderResult(res)
	}

	serialTrace, serialResult := render(1)
	if !strings.Contains(serialTrace, `"ev":"fault"`) {
		t.Fatal("trace carries no fault events — the schedule did not install")
	}
	if !strings.Contains(serialTrace, `"ev":"reroute"`) {
		t.Fatal("trace carries no reroute events")
	}
	if !strings.Contains(serialResult, "completed=84") {
		t.Fatalf("flap run did not complete all flows:\n%s", serialResult)
	}
	for _, shards := range []int{0, 2, 4, 8} {
		gotTrace, gotResult := render(shards)
		if gotTrace != serialTrace {
			t.Errorf("shards=%d: trace diverges at byte %d (of %d vs %d)",
				shards, firstDiff(gotTrace, serialTrace), len(gotTrace), len(serialTrace))
		}
		if gotResult != serialResult {
			t.Errorf("shards=%d: results diverge:\n--- 1 worker ---\n%s--- %d workers ---\n%s",
				shards, serialResult, shards, gotResult)
		}
	}
}

// TestChurnKillEveryPath: when the only switch of a star dies and never
// recovers, every unfinished flow must fail by RTO exhaustion — the run
// terminates with explicit FlowFail accounting instead of deadlocking on
// eternal retransmission.
func TestChurnKillEveryPath(t *testing.T) {
	tcfg := transport.DefaultConfig()
	tcfg.MaxConsecTimeouts = 5
	cfg := RunConfig{
		Seed:      1,
		Topo:      TopoStar,
		Hosts:     8,
		Transport: tcfg,
		Faults: &fault.Schedule{Events: []fault.Event{
			{AtUS: 50, Action: fault.SwitchFail, Switch: "sw0"},
		}},
		Flows: []workload.FlowSpec{
			{Src: 0, Dst: 7, Size: 500_000, Start: 0},
			{Src: 1, Dst: 7, Size: 500_000, Start: 0},
			{Src: 2, Dst: 7, Size: 500_000, Start: 10 * sim.Microsecond},
			{Src: 3, Dst: 6, Size: 500_000, Start: 100 * sim.Microsecond},
		},
	}
	r := Run(cfg)
	if r.Failed != r.Injected {
		t.Errorf("want all %d flows failed, got failed=%d completed=%d",
			r.Injected, r.Failed, r.Completed)
	}
	if r.Timeouts < int64(r.Injected)*int64(tcfg.MaxConsecTimeouts) {
		t.Errorf("timeouts=%d — flows failed before exhausting their %d-RTO budget",
			r.Timeouts, tcfg.MaxConsecTimeouts)
	}
}

// TestChurnDegradeBelowLookaheadRejected pins the lookahead-conservatism
// invariant: a degrade that would shrink a cross-domain link's
// propagation delay below the sharded engine's lookahead must be rejected
// at install time, because the conservative windows were sized from the
// healthy topology. (Everything else a fault does only removes messages
// or leaves delays alone, which can never violate a conservative window —
// that is why lookahead stays healthy-topology-derived under churn.)
func TestChurnDegradeBelowLookaheadRejected(t *testing.T) {
	cfg := churnCell(1, TestbedSchemes()[3])
	cfg.Shards = 2
	cfg.Traffic.Poisson = Poisson{Workload: workload.WebSearch, Load: 0.4, Count: 4}
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{AtUS: 10, Action: fault.Degrade, Link: "leaf0-spine1", PropDelayUS: 0.5},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("sub-lookahead degrade of a boundary link was accepted")
		}
	}()
	Run(cfg)
}
