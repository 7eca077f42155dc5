package experiments

// Worker-count invariance: the worker budget must be an execution
// strategy, not a model change. For a fixed (config, seed) every simulated
// byte — the JSONL event trace, the FCT record stream, and all counters —
// must be identical at any worker count, which is why Cell.CanonicalJSON
// drops Shards from the cache key. "Serial" here is Shards=1 (one worker
// driving the partitioned engine); the test pins Shards 0 and 2, 4 and 8
// workers against it on a traced incast golden, and a second case pins 0
// and 4 against 1 on an untraced fig6-style Poisson cell.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

// renderResult flattens everything a run reports into one string: the FCT
// record stream in completion order, then every counter.
func renderResult(r RunResult) string {
	var b strings.Builder
	for _, rec := range r.Collector.Records() {
		fmt.Fprintf(&b, "fct size=%d fct=%d query=%v\n", rec.Size, rec.FCT, rec.Query)
	}
	fmt.Fprintf(&b, "drops=%d marks=%d timeouts=%d retransmits=%d completed=%d injected=%d\n",
		r.Drops, r.Marks, r.Timeouts, r.Retransmits, r.Completed, r.Injected)
	fmt.Fprintf(&b, "stats overall=%v shortp99=%v large=%v\n",
		r.Stats.OverallAvg, r.Stats.ShortP99, r.Stats.LargeAvg)
	return b.String()
}

// incastCellCfg is the traced golden workload: a 12-way incast into host 0
// on a 2-spine/4-leaf fabric with two cross-leaf background flows, so
// traffic crosses every domain boundary while queues actually build at the
// aggregator's last hop.
func incastCellCfg(shards int) RunConfig {
	return RunConfig{
		Seed:         7,
		Topo:         TopoLeafSpine,
		Spines:       2,
		Leaves:       4,
		HostsPerLeaf: 4,
		Shards:       shards,
		Scheme:       TestbedSchemes()[3],
		Flows: []workload.FlowSpec{
			{Src: 1, Dst: 8, Size: 1_000_000, Start: 0},
			{Src: 12, Dst: 5, Size: 1_000_000, Start: 5 * sim.Microsecond},
		},
		Traffic: Traffic{Query: workload.QueryConfig{
			Senders:  []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			Receiver: 0,
			At:       10 * sim.Microsecond,
			MinBytes: 3_000,
			MaxBytes: 60_000,
		}},
	}
}

// TestShardedByteIdenticalToSerial: the traced incast golden at Shards 0,
// 2, 4 and 8 is byte-for-byte the serial (1-worker) run — trace, FCT
// records and counters alike — and so is its RunReport: windows,
// per-domain events and handoff counts.
func TestShardedByteIdenticalToSerial(t *testing.T) {
	render := func(shards int) (string, string, sim.RunReport) {
		var buf bytes.Buffer
		jw := trace.NewJSONLWriter(&buf)
		cfg := incastCellCfg(shards)
		cfg.NewTracer = func(context.Context, int64) trace.Tracer { return jw }
		res := Run(cfg)
		if err := jw.Flush(); err != nil {
			t.Fatalf("shards=%d: trace flush: %v", shards, err)
		}
		return buf.String(), renderResult(res), res.Report
	}

	serialTrace, serialResult, serialReport := render(1)
	if serialReport.Windows == 0 || len(serialReport.DomainEvents) != 6 || serialReport.HandoffMsgs == 0 {
		t.Fatalf("serial report %+v: want windows, 6 domains and handoff messages", serialReport)
	}
	if serialTrace == "" {
		t.Fatal("serial run produced no trace")
	}
	if !strings.Contains(serialResult, "completed=14") {
		t.Fatalf("serial run did not complete all 14 flows:\n%s", serialResult)
	}
	for _, shards := range []int{0, 2, 4, 8} {
		gotTrace, gotResult, gotReport := render(shards)
		if !reflect.DeepEqual(gotReport, serialReport) {
			t.Errorf("shards=%d: report %+v, serial %+v", shards, gotReport, serialReport)
		}
		if gotTrace != serialTrace {
			t.Errorf("shards=%d: trace diverges from serial at byte %d (of %d vs %d)",
				shards, firstDiff(gotTrace, serialTrace), len(gotTrace), len(serialTrace))
		}
		if gotResult != serialResult {
			t.Errorf("shards=%d: results diverge:\n--- serial ---\n%s--- shards=%d ---\n%s",
				shards, serialResult, shards, gotResult)
		}
	}
}

// TestShardedFig6CellByteIdentical: a fig6-style leaf-spine cell — Poisson
// web-search arrivals over random pairs with a 3× RTT variation — produces
// identical FCT records and counters at Shards 0, 1 and 4. Unlike the incast
// golden this exercises the RTT assigner, Poisson arrival stream and ECMP
// spreading under load, so a worker-count dependency anywhere in that
// pipeline surfaces here.
func TestShardedFig6CellByteIdentical(t *testing.T) {
	render := func(shards int) string {
		cfg := RunConfig{
			Seed:         3,
			Topo:         TopoLeafSpine,
			Spines:       2,
			Leaves:       4,
			HostsPerLeaf: 4,
			Shards:       shards,
			Scheme:       TestbedSchemes()[3],
			RTT:          rttvar.NewVariation(TestbedRTTMin, 3),
			Traffic:      Traffic{Poisson: Poisson{Workload: workload.WebSearch, Load: 0.5, Count: 80}},
		}
		return renderResult(Run(cfg))
	}

	serial := render(1)
	if !strings.Contains(serial, "completed=80") {
		t.Fatalf("serial run did not complete all flows:\n%s", serial)
	}
	for _, shards := range []int{0, 4} {
		if got := render(shards); got != serial {
			t.Errorf("shards=%d diverges from serial:\n--- serial ---\n%s--- shards=%d ---\n%s",
				shards, serial, shards, got)
		}
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestScaleCellQueuesHoldLiveEventsOnly runs the 1,024-host scale cell the
// way RunContext does and samples the engines' queue lengths before every
// window. Each sender re-arms its retransmission timer on every ACK; were
// the canceled timers to stay queued until their timestamps, the queues
// would hold several entries per host (6.8 at the time of writing) where
// the live events — packets in flight and one timer per flow — are fewer
// than two.
func TestScaleCellQueuesHoldLiveEventsOnly(t *testing.T) {
	cell, err := ScaleCellByHosts(1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaleCellConfig(cell, 1)
	cfg.defaults()
	net := topology.NewLeafSpine(cell.Spines, cell.Leaves, cell.HostsPerLeaf, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   cfg.PropDelay,
			BufferBytes: cfg.BufferBytes,
		},
		NewAQM: cfg.Scheme.Factory(rand.New(rand.NewSource(cfg.Seed))),
		Shards: cfg.Shards,
	})
	table := transport.NewFlowTable(len(cfg.Flows))
	completed := 0
	table.OnDone = func(int) { completed++ }
	for i, spec := range cfg.Flows {
		table.Launch(cfg.Transport, net.Host(spec.Src), net.Host(spec.Dst), uint64(i+1), spec.Size, spec.Start, spec.Query)
	}
	peak := 0
	err = net.Shard.RunPoll(sim.MaxTime, 1, func() error {
		queued := 0
		for _, e := range net.Engines {
			queued += e.Len()
		}
		peak = max(peak, queued)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Shard.Processed(); completed != cell.Hosts || got != 345_088 {
		t.Fatalf("%d of %d flows completed in %d events, want all in 345088", completed, cell.Hosts, got)
	}
	if peak >= 2*cell.Hosts {
		t.Errorf("engine queues peaked at %d entries for %d hosts, want < %d", peak, cell.Hosts, 2*cell.Hosts)
	}
	t.Logf("peak queued events: %d (%.2f per host)", peak, float64(peak)/float64(cell.Hosts))
}
