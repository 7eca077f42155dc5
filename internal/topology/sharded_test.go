package topology

import (
	"testing"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// countingTracer tallies events by type and keeps the stream.
type countingTracer struct {
	evs []trace.Event
}

func (c *countingTracer) Trace(e trace.Event) { c.evs = append(c.evs, e) }

func (c *countingTracer) count(tp trace.Type) int {
	n := 0
	for _, e := range c.evs {
		if e.Type == tp {
			n++
		}
	}
	return n
}

// sendAt schedules a raw data packet from src to dst at the given time
// (on src's engine, so it works on any partition). The packet rides the full
// forwarding path; the destination host drops it as an unknown flow,
// which is all these wiring tests need.
func sendAt(net *Net, src, dst int, at sim.Time) {
	h := net.Host(src)
	net.EngineOf(src).Schedule(at, func() {
		p := h.AllocPacket()
		p.FlowID = uint32(src*1000 + dst)
		p.Src, p.Dst = int32(src), int32(dst)
		p.Kind = packet.Data
		p.PayloadLen = 1000
		p.ECN = packet.ECT
		h.Send(p)
	})
}

// totalEnqueued sums the switch egress enqueue counters — the ground
// truth a tracer's Enqueue event count must match exactly (each event
// delivered once: no duplication from re-attachment, no loss).
func totalEnqueued(net *Net) int64 {
	var n int64
	for _, p := range net.SwitchPorts {
		n += p.Egress.Enqueued
	}
	return n
}

func shardedOpts(shards int) Options {
	return Options{
		Link:   LinkParams{RateBps: TenGbps, PropDelay: sim.Microsecond},
		Shards: shards,
	}
}

// checkAttachTracerLifecycle drives a network of at least four hosts
// through the AttachTracer contract: re-attaching the same tracer is a
// no-op rewire; attaching a new tracer between partial runs splits the
// stream cleanly; attaching nil detaches. Events are never duplicated or
// lost across any of it.
func checkAttachTracerLifecycle(t *testing.T, net *Net) {
	t.Helper()
	// Phase 1 traffic (delivered well before t=100µs), phase 2 at 200µs+,
	// phase 3 at 500µs+; all scheduled up front, single-threaded.
	for i, at := range []sim.Time{0, 10 * sim.Microsecond, 20 * sim.Microsecond} {
		sendAt(net, i%2, 3-i%2, at)
	}
	sendAt(net, 0, 3, 200*sim.Microsecond)
	sendAt(net, 2, 1, 210*sim.Microsecond)
	sendAt(net, 3, 0, 500*sim.Microsecond)

	first := &countingTracer{}
	net.AttachTracer(first)
	net.AttachTracer(first) // idempotent: must not double-deliver
	net.Shard.RunUntil(100 * sim.Microsecond)

	phase1 := totalEnqueued(net)
	if phase1 == 0 {
		t.Fatal("phase 1 forwarded no packets")
	}
	if got := first.count(trace.Enqueue); int64(got) != phase1 {
		t.Fatalf("first tracer saw %d enqueues, switches counted %d", got, phase1)
	}

	second := &countingTracer{}
	net.AttachTracer(second) // swap mid-lifecycle, between partial runs
	net.Shard.RunUntil(400 * sim.Microsecond)

	phase2 := totalEnqueued(net) - phase1
	if phase2 == 0 {
		t.Fatal("phase 2 forwarded no packets")
	}
	if got := first.count(trace.Enqueue); int64(got) != phase1 {
		t.Errorf("first tracer grew to %d enqueues after being replaced (phase1 = %d)", got, phase1)
	}
	if got := second.count(trace.Enqueue); int64(got) != phase2 {
		t.Errorf("second tracer saw %d enqueues, want %d", got, phase2)
	}

	net.AttachTracer(nil) // detach: phase 3 must be untraced and not panic
	net.Shard.Run()
	if got := second.count(trace.Enqueue); int64(got) != phase2 {
		t.Errorf("detached tracer still received events (%d > %d)", got, phase2)
	}
	if totalEnqueued(net) == phase1+phase2 {
		t.Error("phase 3 forwarded no packets")
	}
}

// TestAttachTracerIdempotentSharded: the contract across domains, where
// the stream is merged at window barriers.
func TestAttachTracerIdempotentSharded(t *testing.T) {
	net := NewLeafSpine(2, 2, 2, shardedOpts(2))
	checkAttachTracerLifecycle(t, net)
	if net.Shard.Windows() == 0 {
		t.Error("a multi-domain run executed no windows")
	}
}

// TestAttachTracerIdempotentSerial: the same contract on a one-domain
// build — a star, at any worker request — which Net.Shard drives
// directly: the tracer sees the engine's own stream, no windows.
func TestAttachTracerIdempotentSerial(t *testing.T) {
	for _, shards := range []int{0, 4} {
		net := NewStar(4, shardedOpts(shards))
		if net.Domains() != 1 {
			t.Fatalf("star/%d: built %d domains, want 1", shards, net.Domains())
		}
		checkAttachTracerLifecycle(t, net)
		if w := net.Shard.Windows(); w != 0 {
			t.Errorf("star/%d: one-domain run executed %d windows, want 0", shards, w)
		}
	}
}

// TestShardedForwardingMatchesSerial: the same raw-packet workload on the
// same fabric builds the same domains and forwards identically — per-port
// tx and enqueue counters — at Shards 0, 1 and 4.
func TestShardedForwardingMatchesSerial(t *testing.T) {
	load := func(net *Net) {
		f := 0
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 8; dst++ {
				if src == dst {
					continue
				}
				sendAt(net, src, dst, sim.Time(f)*3*sim.Microsecond)
				f++
			}
		}
	}
	census := func(net *Net) []int64 {
		var out []int64
		for _, p := range net.SwitchPorts {
			out = append(out, p.TxPackets, p.Egress.Enqueued, p.Egress.Dequeued)
		}
		return out
	}
	run := func(shards int) []int64 {
		net := NewLeafSpine(2, 4, 2, shardedOpts(shards))
		load(net)
		net.Shard.Run()
		if net.Domains() != 6 || net.Shard.Windows() == 0 {
			t.Fatalf("shards=%d: %d domains, %d windows; want the 6 of the natural partition", shards, net.Domains(), net.Shard.Windows())
		}
		return census(net)
	}

	serial := run(0)
	for _, shards := range []int{1, 4} {
		got := run(shards)
		if len(got) != len(serial) {
			t.Fatalf("shards=%d: census length %d, want %d", shards, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("shards=%d: census[%d] = %d, serial = %d", shards, i, got[i], serial[i])
			}
		}
	}
}
