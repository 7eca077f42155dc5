package experiments

// Worker-count invariance: the worker budget must be an execution
// strategy, not a model change. For a fixed (config, seed) every simulated
// byte — the JSONL event trace, the FCT record stream, and all counters —
// must be identical at any worker count, which is why Cell.CanonicalJSON
// drops Shards from the cache key. "Serial" here is Shards=1 (one worker
// driving the partitioned engine); the test pins Shards 0 and 2, 4 and 8
// workers against it on a traced incast golden, a second case pins 0
// and 4 against 1 on an untraced fig6-style Poisson cell, and a third pins
// 0, 2 and 4 against 1 on the traced paper-shaped 1k-host scale cell.

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"reflect"
	"runtime"
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
		res, _ := RunContext(context.Background(), cfg, jw)
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

// TestShardedPacketListsIndependentOfGOMAXPROCS: the domains of a worker
// group share one packet free list, and a run on fewer Ps than groups runs
// several groups on one worker (group g on worker g mod W). At Shards 3
// and 4 on the six-domain incast golden, under GOMAXPROCS 1, 2 and 4,
// the trace, results, report and every domain's pool counts equal those
// under GOMAXPROCS 1; Shards 3 on 2 Ps is a worker count that does not
// divide the group count.
func TestShardedPacketListsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shards := range []int{3, 4} {
		var want string
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			var buf bytes.Buffer
			jw := trace.NewJSONLWriter(&buf)
			res, err := RunContext(context.Background(), incastCellCfg(shards), jw)
			if err == nil {
				err = jw.Flush()
			}
			if err != nil {
				t.Fatalf("shards=%d GOMAXPROCS=%d: %v", shards, procs, err)
			}
			got := fmt.Sprintf("%s%s%+v\npools %+v\n", buf.String(), renderResult(res), res.Report, res.Pools)
			if procs == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("shards=%d: GOMAXPROCS %d diverges from 1 at byte %d (of %d vs %d)",
					shards, procs, firstDiff(got, want), len(got), len(want))
			}
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

// TestShardedPaperCellByteIdentical: the paper-shaped 1k-host scale cell
// (the leaf-spine cell a sweep expands for load 0.6 — websearch arrivals
// with a 3× RTT variation under ECN♯ — with 128 flows, on the 4×16×64
// leaf-spine, 2.0 M events) gives the same trace, FCT records, counters and
// RunReport at Shards 0, 1, 2 and 4. Its trace is ~195 MB, so it is hashed
// as it is written, not kept.
func TestShardedPaperCellByteIdentical(t *testing.T) {
	cell, err := ScaleCellByHosts(1024)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 128
	spec, err := ParseSweepSpec(fmt.Appendf(nil, `{"topo":"leafspine","loads":[0.6],"flows":%d}`, flows))
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Cells()[0].runConfig
	cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = cell.Spines, cell.Leaves, cell.HostsPerLeaf
	seed := maphash.MakeSeed()
	type outcome struct {
		trace      uint64
		traceBytes int64
		result     string
		report     sim.RunReport
	}
	render := func(shards int) outcome {
		var h maphash.Hash
		h.SetSeed(seed)
		cw := &countingWriter{w: &h}
		jw := trace.NewJSONLWriter(cw)
		cfg.Shards = shards
		res, err := RunContext(context.Background(), cfg, jw)
		if err == nil {
			err = jw.Flush()
		}
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return outcome{h.Sum64(), cw.n, renderResult(res), res.Report}
	}

	serial := render(1)
	if want := fmt.Sprintf("completed=%d", flows); !strings.Contains(serial.result, want) {
		t.Fatalf("serial run did not complete all flows (want %s):\n%s", want, serial.result)
	}
	if serial.traceBytes == 0 || serial.report.Windows == 0 || serial.report.HandoffMsgs == 0 {
		t.Fatalf("serial run traced %d bytes over %d windows and %d handoffs, want some of each",
			serial.traceBytes, serial.report.Windows, serial.report.HandoffMsgs)
	}
	for _, shards := range []int{0, 2, 4} {
		got := render(shards)
		if got.trace != serial.trace || got.traceBytes != serial.traceBytes {
			t.Errorf("shards=%d: trace of %d bytes hashes to %#x, serial %d bytes to %#x",
				shards, got.traceBytes, got.trace, serial.traceBytes, serial.trace)
		}
		if got.result != serial.result {
			t.Errorf("shards=%d: results diverge from serial at byte %d (of %d vs %d)",
				shards, firstDiff(got.result, serial.result), len(got.result), len(serial.result))
		}
		if !reflect.DeepEqual(got.report, serial.report) {
			t.Errorf("shards=%d: report %+v, serial %+v", shards, got.report, serial.report)
		}
	}
}

// countingWriter counts the bytes it passes on to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
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
