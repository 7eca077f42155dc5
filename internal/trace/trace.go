// Package trace is the simulation-wide event tracing and observability
// layer: a typed, zero-allocation-on-hot-path event stream emitted by the
// queue, AQM and transport layers while a simulation runs.
//
// The paper's claims live in microscopic queue dynamics — sojourn time
// against the instantaneous threshold, Algorithm 1's persistent-marking
// cadence — which end-of-run FCT aggregates cannot show. A Tracer attached
// to a run observes every enqueue, dequeue, drop, ECN mark (attributed to
// the instantaneous or the persistent condition), congestion-window and
// rate update, and flow lifecycle event, timestamped with the engine clock.
//
// Cost model: tracing is off by default (a nil Tracer), and every emission
// site guards with a single nil check, so the hot paths of an untraced
// simulation pay one pointer comparison per event at most. Events are plain
// value structs passed by value; no emission allocates. The package depends
// only on the standard library so that internal/sim can hold the attach
// point (Engine.SetTracer) without an import cycle.
//
// See TRACING.md at the repository root for the full event schema and the
// JSONL line format contract.
package trace

import (
	"fmt"
	"strings"
)

// Type identifies what happened in an Event.
type Type uint8

// Event types. The String form of each constant is the identifier used in
// JSONL/CSV output and accepted by ParseMask (ecnsim -trace-events).
const (
	// Enqueue records a packet admitted to a switch egress queue.
	Enqueue Type = iota
	// Dequeue records a packet leaving a switch egress queue, with its
	// sojourn time.
	Dequeue
	// Drop records a packet refused admission (tail drop on buffer or
	// shared-pool exhaustion).
	Drop
	// ECNMark records a CE mark applied to an ECT packet, attributed via
	// MarkKind to the instantaneous or persistent condition.
	ECNMark
	// SojournSample records a periodic queue observation: occupancy plus
	// the age of the head-of-line packet.
	SojournSample
	// CwndUpdate records a congestion-window change of a window-based
	// sender.
	CwndUpdate
	// RateUpdate records a sending-rate change of a rate-based (DCQCN)
	// sender.
	RateUpdate
	// ECNEcho records a receiver observing a CE-marked data packet and
	// echoing ECE back to its sender.
	ECNEcho
	// FlowStart records a sender beginning transmission.
	FlowStart
	// FlowFinish records a flow completing, with its flow completion time.
	FlowFinish
	// LinkFault records a fault-injection transition taking effect: a link
	// going down or up, a port degrade, or a switch failing/recovering.
	// FaultKind (the Fault field) says which; Seq carries the transition's
	// routing epoch.
	LinkFault
	// Reroute records one simulation domain re-resolving its ECMP sets
	// after a fault transition; Src carries the domain, Seq the epoch.
	Reroute
	// FlowFail records a flow abandoned after RTO exhaustion (fault
	// injection's graceful-degradation path), with its elapsed time.
	FlowFail

	numTypes
)

// typeNames maps Type to its wire identifier.
var typeNames = [numTypes]string{
	Enqueue:       "enqueue",
	Dequeue:       "dequeue",
	Drop:          "drop",
	ECNMark:       "mark",
	SojournSample: "sojourn",
	CwndUpdate:    "cwnd",
	RateUpdate:    "rate",
	ECNEcho:       "echo",
	FlowStart:     "flow_start",
	FlowFinish:    "flow_finish",
	LinkFault:     "fault",
	Reroute:       "reroute",
	FlowFail:      "flow_fail",
}

// String returns the wire identifier of the type ("enqueue", "mark", …).
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MarkKind attributes an ECNMark event to the condition that decided it.
type MarkKind uint8

// Mark kinds.
const (
	// MarkUnknown is reported when the AQM cannot attribute the mark.
	MarkUnknown MarkKind = iota
	// MarkInstantaneous: the packet's sojourn time (or the instantaneous
	// queue length) exceeded the instantaneous threshold (burst control).
	MarkInstantaneous
	// MarkPersistent: Algorithm 1's conservative marking upon persistent
	// queue buildup.
	MarkPersistent
	// MarkProbabilistic: a RED-style probabilistic decision (DCQCN-oriented
	// schemes, §3.5).
	MarkProbabilistic
)

// String returns the wire identifier of the kind.
func (k MarkKind) String() string {
	switch k {
	case MarkInstantaneous:
		return "instantaneous"
	case MarkPersistent:
		return "persistent"
	case MarkProbabilistic:
		return "probabilistic"
	case MarkUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("MarkKind(%d)", uint8(k))
	}
}

// FaultKind classifies a LinkFault event's transition.
type FaultKind uint8

// Fault kinds.
const (
	// FaultNone is the zero value carried by non-fault events.
	FaultNone FaultKind = iota
	// FaultLinkDown: a bidirectional link went down.
	FaultLinkDown
	// FaultLinkUp: a downed link came back.
	FaultLinkUp
	// FaultDegrade: a directed port changed rate and/or propagation delay.
	FaultDegrade
	// FaultSwitchFail: a switch failed (blackholing all traffic through it).
	FaultSwitchFail
	// FaultSwitchRecover: a failed switch came back.
	FaultSwitchRecover
)

// String returns the wire identifier of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link_down"
	case FaultLinkUp:
		return "link_up"
	case FaultDegrade:
		return "degrade"
	case FaultSwitchFail:
		return "switch_fail"
	case FaultSwitchRecover:
		return "switch_recover"
	case FaultNone:
		return "none"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Event is one observation. It is a flat value struct so that emission
// never allocates and recorders can store events in preallocated arrays;
// which fields are meaningful depends on Type (the schema per type is the
// contract documented in TRACING.md).
//
// Emitters must set Port, Queue, Src and Dst to -1 when not applicable:
// the zero value of those fields is a valid id.
type Event struct {
	// Type says what happened.
	Type Type
	// Mark attributes an ECNMark event; MarkUnknown otherwise.
	Mark MarkKind
	// Fault classifies a LinkFault event; FaultNone otherwise. For
	// LinkFault events Port is the topology link-census index (or -1 for
	// switch transitions, whose switch index rides in Src), Seq is the
	// routing epoch, Value the new rate and Dur the new propagation delay
	// of a degrade. For Reroute events Src is the domain and Seq the epoch.
	Fault FaultKind
	// At is the simulation timestamp in nanoseconds (sim.Time).
	At int64
	// Port is the egress-port id assigned at tracer attach time
	// (topology.Net.AttachTracer numbers switch ports); -1 for host-side
	// events.
	Port int
	// Queue is the service-queue index within the port; -1 when N/A.
	Queue int
	// FlowID is the flow the event belongs to; 0 when N/A.
	FlowID uint64
	// Src and Dst are host ids; -1 when N/A.
	Src, Dst int
	// Seq is the packet's first payload byte offset (data packets).
	Seq int64
	// Size is the packet wire size in bytes; for FlowStart/FlowFinish it
	// is the flow size in bytes.
	Size int64
	// Dur is a duration in nanoseconds: the sojourn time for
	// Dequeue/ECNMark, the head-of-line packet age for SojournSample, and
	// the flow completion time for FlowFinish.
	Dur int64
	// QueuePackets and QueueBytes are the whole-egress occupancy after the
	// event took effect (for Drop: at the instant of refusal).
	QueuePackets int
	QueueBytes   int64
	// Value is the congestion window in bytes (CwndUpdate) or the sending
	// rate in bits/second (RateUpdate).
	Value float64
}

// Tracer observes simulation events. Implementations must not mutate
// simulation state — tracing must never change an outcome — and need not
// be safe for concurrent use: each simulation engine is single-threaded
// and owns its tracer.
type Tracer interface {
	// Trace delivers one event. It is called from simulation hot paths;
	// implementations should be cheap or sample.
	Trace(e Event)
}

// Nop is the do-nothing Tracer. The default for a simulation is no tracer
// at all (a nil interface, checked at every emission site); Nop exists to
// measure the full interface-dispatch cost and as an embeddable base for
// tracers that only care about some event types.
type Nop struct{}

// Trace discards the event.
func (Nop) Trace(Event) {}

// Mask is a bit set of event Types used by filters and recorders.
type Mask uint16

// AllEvents has every event type enabled.
const AllEvents = Mask(1<<numTypes) - 1

// MaskOf builds a Mask enabling exactly the given types.
func MaskOf(types ...Type) Mask {
	var m Mask
	for _, t := range types {
		m |= 1 << t
	}
	return m
}

// Has reports whether the mask enables t.
func (m Mask) Has(t Type) bool { return m&(1<<t) != 0 }

// String returns the enabled type names, comma-separated ("all" for the
// full mask).
func (m Mask) String() string {
	if m == AllEvents {
		return "all"
	}
	var names []string
	for t := Type(0); t < numTypes; t++ {
		if m.Has(t) {
			names = append(names, t.String())
		}
	}
	return strings.Join(names, ",")
}

// ParseMask parses a comma-separated list of event-type names ("enqueue",
// "mark", …, or "all") into a Mask, as accepted by ecnsim -trace-events.
func ParseMask(s string) (Mask, error) {
	var m Mask
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			m |= AllEvents
			continue
		}
		found := false
		for t := Type(0); t < numTypes; t++ {
			if typeNames[t] == name {
				m |= 1 << t
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("trace: unknown event type %q (known: %s,all)", name, strings.Join(typeNames[:], ","))
		}
	}
	if m == 0 {
		return 0, fmt.Errorf("trace: empty event mask")
	}
	return m, nil
}

// Filter forwards a sampled subset of events to another tracer: only
// events whose type is enabled in Mask, and of those only every Stride-th
// one (a single counter across all enabled types). It implements the
// -trace-events and -trace-sample semantics of ecnsim.
type Filter struct {
	// Next receives the surviving events.
	Next Tracer
	// Mask enables event types; zero passes nothing.
	Mask Mask
	// Stride keeps every Stride-th mask-passing event; values < 2 keep all.
	Stride int

	n uint64
}

// NewFilter builds a Filter; stride < 1 is normalized to 1 (keep all).
func NewFilter(next Tracer, mask Mask, stride int) *Filter {
	if stride < 1 {
		stride = 1
	}
	return &Filter{Next: next, Mask: mask, Stride: stride}
}

// Trace applies the mask and stride, forwarding survivors to Next.
func (f *Filter) Trace(e Event) {
	if !f.Mask.Has(e.Type) {
		return
	}
	f.n++
	if f.Stride > 1 && (f.n-1)%uint64(f.Stride) != 0 {
		return
	}
	f.Next.Trace(e)
}
