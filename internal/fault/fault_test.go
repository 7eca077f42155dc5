package fault_test

import (
	"reflect"
	"strings"
	"testing"

	"ecnsharp/internal/fault"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
)

func leafSpineOpts() topology.Options {
	return topology.Options{
		Link: topology.LinkParams{RateBps: topology.TenGbps, PropDelay: sim.Microsecond},
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := `{
		"seed": 7,
		"events": [
			{"at_us": 100, "action": "switch-fail", "switch": "spine0"},
			{"at_us": 900, "action": "switch-recover", "switch": "spine0"},
			{"at_us": 50, "action": "degrade", "link": "leaf0-spine1", "rate_bps": 1e9, "prop_delay_us": 5}
		],
		"flaps": [
			{"link": "leaf1-spine0", "count": 3, "first_down_us": 10, "mean_down_us": 20, "mean_gap_us": 30}
		]
	}`
	s, err := fault.Parse([]byte(spec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Seed != 7 || len(s.Events) != 3 || len(s.Flaps) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	trs, err := s.Expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if want := 3 + 2*3; len(trs) != want {
		t.Fatalf("expanded %d transitions, want %d", len(trs), want)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"evnets": []}`,
		"unknown action": `{"events": [{"at_us": 1, "action": "link-melt", "link": "a-b"}]}`,
		"missing link":   `{"events": [{"at_us": 1, "action": "link-down"}]}`,
		"missing switch": `{"events": [{"at_us": 1, "action": "switch-fail"}]}`,
		"negative time":  `{"events": [{"at_us": -1, "action": "link-down", "link": "a-b"}]}`,
		"empty degrade":  `{"events": [{"at_us": 1, "action": "degrade", "link": "a-b"}]}`,
		"zero count":     `{"flaps": [{"link": "a-b", "count": 0, "mean_down_us": 1, "mean_gap_us": 1}]}`,
		"zero mean":      `{"flaps": [{"link": "a-b", "count": 1, "mean_down_us": 0, "mean_gap_us": 1}]}`,
	}
	for name, spec := range cases {
		if _, err := fault.Parse([]byte(spec)); err == nil {
			t.Errorf("%s: accepted %s", name, spec)
		}
	}
}

// TestExpandDeterministic: expansion is a pure function of the schedule —
// the seeded flap generator produces identical transitions every time,
// sorted by time with 1-based epochs.
func TestExpandDeterministic(t *testing.T) {
	s := &fault.Schedule{
		Seed: 42,
		Events: []fault.Event{
			{AtUS: 500, Action: fault.LinkDown, Link: "leaf0-spine0"},
		},
		Flaps: []fault.Flap{
			{Link: "leaf0-spine1", Count: 10, FirstDownUS: 5, MeanDownUS: 30, MeanGapUS: 50},
		},
	}
	a, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	last := sim.Time(-1)
	for i, tr := range a {
		if tr.At < last {
			t.Fatalf("transition %d out of order: %v after %v", i, tr.At, last)
		}
		last = tr.At
		if tr.Epoch != uint64(i+1) {
			t.Fatalf("transition %d has epoch %d", i, tr.Epoch)
		}
	}
	// Different seed, different flap times.
	s2 := *s
	s2.Seed = 43
	c, _ := s2.Expand()
	if reflect.DeepEqual(a, c) {
		t.Fatal("seed does not influence flap expansion")
	}
}

// TestFlapDurationsFloored: sampled outage/gap durations are floored at
// 1 µs, so down and up never collapse onto the same instant in the wrong
// order.
func TestFlapDurationsFloored(t *testing.T) {
	s := &fault.Schedule{
		Seed:  1,
		Flaps: []fault.Flap{{Link: "a-b", Count: 50, MeanDownUS: 0.001, MeanGapUS: 0.001}},
	}
	trs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var prev sim.Time
	for i, tr := range trs {
		if i > 0 && tr.At < prev+sim.Microsecond {
			t.Fatalf("transition %d at %v within 1us of previous %v", i, tr.At, prev)
		}
		prev = tr.At
	}
}

func TestInstallUnknownTargets(t *testing.T) {
	for _, s := range []*fault.Schedule{
		{Events: []fault.Event{{AtUS: 1, Action: fault.LinkDown, Link: "leaf9-spine9"}}},
		{Events: []fault.Event{{AtUS: 1, Action: fault.SwitchFail, Switch: "spine9"}}},
	} {
		net := topology.NewLeafSpine(2, 2, 2, leafSpineOpts())
		if _, err := fault.Install(net, s); err == nil {
			t.Errorf("install accepted unknown target: %+v", s.Events[0])
		}
	}
}

// TestInstallRejectsSubLookaheadDegrade pins the conservatism argument
// for sharded lookahead under churn: downs only remove messages and can
// never violate a conservative window, so the only fault that could —
// shortening a boundary link's delay below the lookahead the windows
// were sized from — must be refused at install time.
func TestInstallRejectsSubLookaheadDegrade(t *testing.T) {
	net := topology.NewLeafSpine(2, 2, 2, leafSpineOpts())
	_, err := fault.Install(net, &fault.Schedule{Events: []fault.Event{
		{AtUS: 1, Action: fault.Degrade, Link: "leaf0-spine0", PropDelayUS: 0.25},
	}})
	if err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("sub-lookahead degrade not rejected: %v", err)
	}
	// Raising the delay is conservative and fine.
	if _, err := fault.Install(net, &fault.Schedule{Events: []fault.Event{
		{AtUS: 1, Action: fault.Degrade, Link: "leaf0-spine0", PropDelayUS: 50},
	}}); err != nil {
		t.Fatalf("above-lookahead degrade rejected: %v", err)
	}
}

// TestEnableFaultsPreservesRouting: with every link healthy, enabling
// fault injection must not change a single ECMP decision — the rebuilt
// per-destination uplink sets equal the healthy fast path's.
func TestEnableFaultsPreservesRouting(t *testing.T) {
	baseline := topology.NewLeafSpine(4, 4, 2, leafSpineOpts())
	enabled := topology.NewLeafSpine(4, 4, 2, leafSpineOpts())
	if _, err := fault.Install(enabled, &fault.Schedule{}); err != nil {
		t.Fatal(err)
	}
	for _, sw := range []int{0, 4, 7} { // a spine and two leaves
		for dst := 0; dst < 8; dst++ {
			a := baseline.Switches[sw].Routes(dst)
			b := enabled.Switches[sw].Routes(dst)
			if len(a) != len(b) {
				t.Fatalf("switch %d dst %d: %d routes healthy vs %d enabled", sw, dst, len(a), len(b))
			}
		}
	}
}

// TestTeardownSendPanics: after Net.Teardown a straggler Send must fail
// loudly with a clear error instead of scheduling onto a finished engine.
func TestTeardownSendPanics(t *testing.T) {
	net := topology.NewStar(3, topology.Options{
		Link: topology.LinkParams{RateBps: topology.TenGbps, PropDelay: sim.Microsecond},
	})
	net.Shard.Run()
	net.Teardown()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Send on a torn-down port did not panic")
		}
		if !strings.Contains(r.(string), "teardown") {
			t.Fatalf("panic message unclear: %v", r)
		}
	}()
	p := net.PacketPools[0].Get()
	p.Src, p.Dst, p.PayloadLen = 0, 1, 100
	net.Links[0].Port.Send(p)
}
