// Package aqm implements the active queue management schemes compared in
// the paper: DCTCP-RED (instantaneous marking on a single queue-length
// threshold), CoDel (persistent-congestion marking), TCN (instantaneous
// sojourn-time marking) and ECN♯ (the paper's contribution, adapting
// internal/core). RED (min/max probabilistic) and ECN♯-prob are the §3.5
// extensions for DCQCN-style transports.
//
// An AQM never drops packets itself in this model: marking-capable
// datacenter switches mark ECT traffic and rely on tail drop only at buffer
// overflow, which the queue layer enforces. AQMs observe packets at
// enqueue (queue-length signals) and dequeue (sojourn-time signals) and
// return whether the packet must be CE-marked.
package aqm

import (
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// Backlog describes the instantaneous queue state at enqueue time,
// excluding the packet being enqueued.
type Backlog struct {
	Bytes   int64
	Packets int
}

// AQM is the marking interface invoked by switch queues.
//
// OnEnqueue runs before the packet is admitted and may mark based on the
// instantaneous backlog. OnDequeue runs as the packet leaves and may mark
// based on its sojourn time. A packet is CE-marked if either hook returns
// true (and the packet is ECN-capable; the queue layer checks ECT).
type AQM interface {
	Name() string
	OnEnqueue(now sim.Time, p *packet.Packet, b Backlog) bool
	OnDequeue(now sim.Time, p *packet.Packet, sojourn sim.Time) bool
}

// MarkKinder is an optional interface an AQM implements to attribute its
// marks for tracing: after OnEnqueue or OnDequeue returns true,
// LastMarkKind reports which condition decided that mark (instantaneous,
// persistent, or probabilistic). The queue layer type-asserts once at
// construction and calls LastMarkKind only for packets actually marked, so
// schemes with a single marking condition can return a constant. AQMs that
// do not implement it have their marks traced as trace.MarkUnknown.
type MarkKinder interface {
	LastMarkKind() trace.MarkKind
}

// Nop performs no marking (plain tail-drop FIFO behaviour).
type Nop struct{}

// Name returns "nop".
func (Nop) Name() string { return "nop" }

// OnEnqueue never marks.
func (Nop) OnEnqueue(sim.Time, *packet.Packet, Backlog) bool { return false }

// OnDequeue never marks.
func (Nop) OnDequeue(sim.Time, *packet.Packet, sim.Time) bool { return false }
