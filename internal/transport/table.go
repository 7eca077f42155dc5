package transport

import (
	"fmt"
	"math"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
)

// FlowTable holds the bookkeeping of every flow in a run in a
// struct-of-arrays layout: one parallel slice per field instead of one
// heap object per flow. The hot loops that touch flow state in bulk —
// completion accounting, end-of-run stats sweeps, scale benchmarks with
// 100k concurrent flows — then walk dense int64/bool arrays instead of
// chasing pointers, and the per-flow metadata footprint is a few dozen
// bytes instead of a boxed struct plus closure captures.
//
// Under a sharded engine the table is also the concurrency boundary for
// completions: a flow's completion callback runs on its source host's
// domain worker and writes only that flow's elements (disjoint indices
// are distinct memory locations, so no two workers ever race on them)
// plus whatever the OnDone hook touches, which the caller keys by domain
// (see experiments.RunContext).
type FlowTable struct {
	// IDs[i] is flow i's wire identifier (unique per run).
	IDs []uint32
	// Src and Dst are the endpoint host ids.
	Src, Dst []int
	// Size is the flow length in bytes.
	Size []int64
	// Start is the scheduled start time.
	Start []sim.Time
	// FCT is the completion time (valid once Done).
	FCT []sim.Time
	// Done marks completed flows.
	Done []bool
	// Failed marks flows that gave up by RTO exhaustion (only possible
	// with Config.MaxConsecTimeouts set); Done and FCT stay unset.
	Failed []bool
	// Query marks query (incast-style) flows for FCT bucketing.
	Query []bool

	// Senders and Receivers are the live endpoints, index-aligned with
	// the field slices.
	Senders   []*Sender
	Receivers []*Receiver

	// OnDone, when non-nil, runs at flow completion (after FCT/Done are
	// recorded) with the flow's index. The flow's receiver stays open —
	// it lives in the destination host's domain, which the source domain's
	// worker must not mutate, and it ACKs a late duplicate as a real one
	// would — until CloseAll.
	OnDone func(i int)

	// OnFail, when non-nil, runs when a flow gives up by RTO exhaustion
	// (after Failed is recorded), with the flow's index. Same threading
	// contract as OnDone: it runs on the flow's source-domain worker.
	OnFail func(i int)

	// cfg is the configuration the table's endpoints share: the last one
	// Launch was given, less the class, which each endpoint keeps apart.
	cfg *Config
}

// NewFlowTable returns a table with capacity reserved for n flows.
func NewFlowTable(n int) *FlowTable {
	return &FlowTable{
		IDs:       make([]uint32, 0, n),
		Src:       make([]int, 0, n),
		Dst:       make([]int, 0, n),
		Size:      make([]int64, 0, n),
		Start:     make([]sim.Time, 0, n),
		FCT:       make([]sim.Time, 0, n),
		Done:      make([]bool, 0, n),
		Failed:    make([]bool, 0, n),
		Query:     make([]bool, 0, n),
		Senders:   make([]*Sender, 0, n),
		Receivers: make([]*Receiver, 0, n),
	}
}

// Launch creates both endpoints of a flow and schedules its start,
// appending its state to the table and returning its index. The receiver
// registers immediately on the destination host's engine (it must exist
// before the first segment can arrive); the sender transmits on the
// source host's engine from start: each endpoint lives in its host's
// domain. The sender records the flow's completion or failure in its row.
// Both endpoints point at one copy of cfg for all the flows launched with
// it, keeping only cfg.Class, narrowed by packet.ClassOf, as their own. A
// flow id must fit the packet's 32 bits.
func (t *FlowTable) Launch(cfg Config, src, dst *device.Host, flowID uint64,
	size int64, start sim.Time, query bool) int {
	if src == dst {
		panic(fmt.Sprintf("transport: flow %d has identical endpoints", flowID))
	}
	if flowID > math.MaxUint32 {
		panic(fmt.Sprintf("transport: flow id %d does not fit a packet's 32 bits", flowID))
	}
	class := packet.ClassOf(cfg.Class)
	cfg.Class = 0
	if t.cfg == nil || *t.cfg != cfg {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		shared := cfg
		t.cfg = &shared
	}
	id := uint32(flowID)
	i := len(t.IDs)
	t.IDs = append(t.IDs, id)
	t.Src = append(t.Src, src.ID)
	t.Dst = append(t.Dst, dst.ID)
	t.Size = append(t.Size, size)
	t.Start = append(t.Start, start)
	t.FCT = append(t.FCT, 0)
	t.Done = append(t.Done, false)
	t.Failed = append(t.Failed, false)
	t.Query = append(t.Query, query)
	t.Receivers = append(t.Receivers, newReceiver(dst.Engine(), t.cfg, class, dst, id, src.ID))
	sender := newSender(t, i, t.cfg, class, src)
	t.Senders = append(t.Senders, sender)
	src.Engine().ScheduleArg(start, senderStart, sender)
	return i
}

// CloseAll closes every receiver. Call it after the engines have drained
// (single-threaded teardown); closing an already-closed receiver is
// harmless (unregister of an absent handler plus a dead timer cancel).
// It first releases the flow table of every receiver's domain whole, with
// every handler left in it: emptied one receiver at a time, a table would
// shrink, and allocate, at each quarter while the run's heap is fullest.
func (t *FlowTable) CloseAll() {
	for _, r := range t.Receivers {
		r.host.Demux.Release()
	}
	for _, r := range t.Receivers {
		r.Close()
	}
}
