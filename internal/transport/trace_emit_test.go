package transport_test

import (
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
)

// countByType tallies recorded events per type for one flow id (0 = all).
func countByType(evs []trace.Event, flowID uint64) map[trace.Type]int {
	counts := make(map[trace.Type]int)
	for _, e := range evs {
		if flowID != 0 && e.FlowID != flowID {
			continue
		}
		counts[e.Type]++
	}
	return counts
}

func TestTraceFlowLifecycle(t *testing.T) {
	// A tiny marking threshold forces ECN activity so echo events appear.
	net := newStar(3, 0, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(10 * 1500)
	})
	rec := trace.NewRingRecorder(1 << 18)
	net.AttachTracer(rec)
	cfg := transport.DefaultConfig()
	table := transport.NewFlowTable(2)
	table.Launch(cfg, net.Host(0), net.Host(2), 1, 2_000_000, 0, false)
	table.Launch(cfg, net.Host(1), net.Host(2), 2, 2_000_000, 0, false)
	net.Shard.Run()

	evs := rec.Events()
	for flowID, src := range map[uint64]int{1: 0, 2: 1} {
		counts := countByType(evs, flowID)
		if counts[trace.FlowStart] != 1 || counts[trace.FlowFinish] != 1 {
			t.Fatalf("flow %d: start/finish = %d/%d, want 1/1",
				flowID, counts[trace.FlowStart], counts[trace.FlowFinish])
		}
		if counts[trace.CwndUpdate] == 0 {
			t.Errorf("flow %d: no cwnd updates under congestion", flowID)
		}
		if counts[trace.ECNEcho] == 0 {
			t.Errorf("flow %d: no ECN echoes despite marking", flowID)
		}
		for _, e := range evs {
			if e.FlowID != flowID {
				continue
			}
			switch e.Type {
			case trace.FlowStart:
				if e.Src != src || e.Dst != 2 || e.Size != 2_000_000 {
					t.Errorf("flow %d start = %+v", flowID, e)
				}
			case trace.FlowFinish:
				if e.Dur <= 0 {
					t.Errorf("flow %d finish has FCT %d", flowID, e.Dur)
				}
			case trace.ECNEcho:
				// Echo events keep flow orientation: Src is the flow's
				// sender even though the receiver emits them.
				if e.Src != src || e.Dst != 2 {
					t.Errorf("flow %d echo orientation = src %d dst %d", flowID, e.Src, e.Dst)
				}
			case trace.CwndUpdate:
				if e.Value <= 0 {
					t.Errorf("flow %d cwnd update value %v", flowID, e.Value)
				}
			}
		}
	}
	// The shared bottleneck must also have produced switch-side mark events
	// with a valid port id.
	counts := countByType(evs, 0)
	if counts[trace.ECNMark] == 0 {
		t.Error("no switch mark events despite echoes")
	}
	for _, e := range evs {
		if e.Type == trace.ECNMark && e.Port < 0 {
			t.Errorf("mark event without port id: %+v", e)
		}
	}
	// Recorder preserves emission order; engine time is monotonic.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order at %d: %d after %d", i, evs[i].At, evs[i-1].At)
		}
	}
}

func TestTraceDCQCNRateEvents(t *testing.T) {
	net := newStar(2, 0, func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(10 * 1500)
	})
	rec := trace.NewRingRecorder(1 << 16)
	net.AttachTracer(trace.NewFilter(rec,
		trace.MaskOf(trace.FlowStart, trace.FlowFinish, trace.RateUpdate), 1))
	launch(rateConfig(transport.DefaultDCQCNConfig()), net.Host(0), net.Host(1), 7, 1_000_000, 0)
	net.Shard.Run()

	counts := countByType(rec.Events(), 7)
	if counts[trace.FlowStart] != 1 || counts[trace.FlowFinish] != 1 {
		t.Fatalf("start/finish = %d/%d, want 1/1",
			counts[trace.FlowStart], counts[trace.FlowFinish])
	}
	if counts[trace.RateUpdate] == 0 {
		t.Error("no rate updates from the DCQCN sender")
	}
	for _, e := range rec.Events() {
		if e.Type == trace.RateUpdate && e.Value <= 0 {
			t.Errorf("rate update value %v", e.Value)
		}
	}
}
