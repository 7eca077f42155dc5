package tofino

import (
	"fmt"
	"math"

	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
)

// ECNSharpP4 is ECN♯ expressed against the Tofino model: Algorithm 1 and
// Algorithm 2 decomposed into seven match-action tables so that every
// register array is accessed at most once per packet (Figure 4c).
//
// Register budget, matching the prototype's census in §4 ("5 32-bit
// register arrays and 2 64-bit register arrays", 7 match-action tables):
//
//	32-bit: time_low, time_high, first_above_time, marking_state,
//	        marking_count_mirror (control-plane visibility of the count)
//	64-bit: pst_state  — packed {marking_next µs (hi), marking_count (lo)};
//	                     packing both into one 64-bit cell is what lets the
//	                     "compare now against marking_next, then increment
//	                     the count and advance marking_next" step happen in
//	                     a single stateful-ALU access
//	        mark_stats — packed {instantaneous marks (hi), persistent (lo)}
//
// The division pst_interval/sqrt(marking_count) cannot be computed by the
// ALU; like the prototype we precompute it as a lookup table indexed by
// the (saturated) marking count.
type ECNSharpP4 struct {
	// Parameters in emulated microseconds.
	InsTargetUS   uint32
	PstTargetUS   uint32
	PstIntervalUS uint32

	timeEmu *TimeEmulator

	firstAbove  *Reg32
	markState   *Reg32
	countMirror *Reg32
	pstState    *Reg64
	markStats   *Reg64

	// sqrtLUT[c] = PstIntervalUS / sqrt(c) for marking counts 1..len-1;
	// index 0 unused, the last entry saturates.
	sqrtLUT []uint32

	tables []*Table
}

// sqrtLUTSize bounds the marking-count lookup table; counts beyond it use
// the final (smallest) interval, which is the behaviour of a saturating
// table on hardware.
const sqrtLUTSize = 1024

// NewECNSharpP4 builds the dataplane program for the given port count.
// Parameters mirror core.Params but at the emulated clock's resolution.
func NewECNSharpP4(ports int, p core.Params, mode WrapMode) (*ECNSharpP4, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &ECNSharpP4{
		InsTargetUS:   usFromTime(p.InsTarget),
		PstTargetUS:   usFromTime(p.PstTarget),
		PstIntervalUS: usFromTime(p.PstInterval),
		timeEmu:       NewTimeEmulator(ports, mode),
		firstAbove:    NewReg32("first_above_time", ports),
		markState:     NewReg32("marking_state", ports),
		countMirror:   NewReg32("marking_count", ports),
		pstState:      NewReg64("pst_state", ports),
		markStats:     NewReg64("mark_stats", ports),
	}
	if e.PstIntervalUS == 0 || e.PstTargetUS == 0 || e.InsTargetUS == 0 {
		return nil, fmt.Errorf("tofino: parameters below clock resolution: %+v", p)
	}
	e.sqrtLUT = make([]uint32, sqrtLUTSize)
	for c := 1; c < sqrtLUTSize; c++ {
		e.sqrtLUT[c] = uint32(float64(e.PstIntervalUS) / math.Sqrt(float64(c)))
	}
	e.buildTables()
	return e, nil
}

// usFromTime converts a sim duration to emulated clock ticks (2^10 ns),
// which the paper calls microseconds.
func usFromTime(t sim.Time) uint32 { return uint32(uint64(t) >> timeShift) }

// Metadata field names used by the program.
const (
	mdAbove      = "above_target"  // sojourn >= pst_target
	mdInstMark   = "inst_mark"     // sojourn > ins_target
	mdNow        = "now_us"        // emulated 32-bit clock
	mdDetected   = "detected"      // persistent buildup confirmed
	mdWasMarking = "was_marking"   // marking_state before this packet
	mdBranch     = "pst_branch"    // was_marking<<1 | detected
	mdPstMark    = "pst_mark"      // persistent mark decision
	mdCount      = "marking_count" // count after pst_state access
	mdSojournUS  = "sojourn_us"    // sojourn in emulated µs
)

// buildTables wires the seven match-action tables in pipeline order.
func (e *ECNSharpP4) buildTables() {
	tblTimeLow := &Table{Name: "emulate_time_low"} // register access happens in run()
	tblTimeHigh := &Table{Name: "emulate_time_high"}

	tblFirstAbove := &Table{
		Name: "first_above_time",
		Key:  mdAbove,
	}
	tblMarkState := &Table{
		Name: "marking_state",
		Key:  mdDetected,
	}
	tblPstState := &Table{
		Name: "pst_state",
		Key:  mdBranch,
	}
	tblCountMirror := &Table{Name: "marking_count_mirror"}
	tblStats := &Table{Name: "mark_stats"}

	e.tables = []*Table{
		tblTimeLow, tblTimeHigh, tblFirstAbove, tblMarkState,
		tblPstState, tblCountMirror, tblStats,
	}
}

// ProcessPacket runs the full egress pipeline for one packet: port is the
// egress port, egressTstampNs the 64-bit nanosecond timestamp the hardware
// supplies, sojourn the packet's time in queue. It returns the marking
// decision.
func (e *ECNSharpP4) ProcessPacket(port int, egressTstampNs uint64, sojourn sim.Time) (core.Reason, error) {
	ctx := NewPacketContext()
	md := ctx.Metadata

	// Ingress metadata computation (pure PHV arithmetic, no state).
	sojournUS := usFromTime(sojourn)
	md[mdSojournUS] = sojournUS
	if sojournUS > e.InsTargetUS {
		md[mdInstMark] = 1
	}
	if sojournUS >= e.PstTargetUS {
		md[mdAbove] = 1
	}

	// Tables 1-2: Algorithm 2 time emulation.
	if err := e.tables[0].Apply(ctx); err != nil {
		return core.NotMarked, err
	}
	if err := e.tables[1].Apply(ctx); err != nil {
		return core.NotMarked, err
	}
	now, err := e.timeEmu.CurrentTime(ctx, port, egressTstampNs)
	if err != nil {
		return core.NotMarked, err
	}
	md[mdNow] = now

	// Table 3: first_above_time — IsPersistentQueueBuildups.
	if err := e.tables[2].Apply(ctx); err != nil {
		return core.NotMarked, err
	}
	if md[mdAbove] == 0 {
		// Queue expired below target: reset.
		if _, err := e.firstAbove.Access(ctx, port, func(uint32) (uint32, uint32) {
			return 0, 0
		}); err != nil {
			return core.NotMarked, err
		}
	} else {
		detected, err := e.firstAbove.Access(ctx, port, func(cur uint32) (uint32, uint32) {
			if cur == 0 {
				return now, 0 // start tracking; not yet persistent
			}
			if now > cur+e.PstIntervalUS {
				return cur, 1
			}
			return cur, 0
		})
		if err != nil {
			return core.NotMarked, err
		}
		md[mdDetected] = detected
	}

	// Table 4: marking_state transition; outputs the previous state.
	if err := e.tables[3].Apply(ctx); err != nil {
		return core.NotMarked, err
	}
	was, err := e.markState.Access(ctx, port, func(cur uint32) (uint32, uint32) {
		return md[mdDetected], cur
	})
	if err != nil {
		return core.NotMarked, err
	}
	md[mdWasMarking] = was
	md[mdBranch] = was<<1 | md[mdDetected]

	// Table 5: pst_state — ShouldPersistentMark's count/next logic in a
	// single packed 64-bit access.
	if err := e.tables[4].Apply(ctx); err != nil {
		return core.NotMarked, err
	}
	switch md[mdBranch] {
	case 0b00: // idle, nothing detected: no state change needed.
	case 0b10: // was marking, queue expired: clear the episode.
		if _, err := e.pstState.Access(ctx, port, func(uint64) (uint64, uint64) {
			return 0, 0
		}); err != nil {
			return core.NotMarked, err
		}
	case 0b01: // entering an episode: mark, count=1, next = now + interval.
		out, err := e.pstState.Access(ctx, port, func(uint64) (uint64, uint64) {
			next := uint64(now+e.PstIntervalUS)<<32 | 1
			return next, 1<<32 | 1 // out: mark flag in hi, count in lo
		})
		if err != nil {
			return core.NotMarked, err
		}
		md[mdPstMark] = uint32(out >> 32)
		md[mdCount] = uint32(out)
	case 0b11: // continuing: mark when due, shrinking the interval.
		out, err := e.pstState.Access(ctx, port, func(cur uint64) (uint64, uint64) {
			next := uint32(cur >> 32)
			count := uint32(cur)
			if now > next {
				count++
				next += e.lutDelta(count)
				return uint64(next)<<32 | uint64(count), 1<<32 | uint64(count)
			}
			return cur, uint64(count)
		})
		if err != nil {
			return core.NotMarked, err
		}
		md[mdPstMark] = uint32(out >> 32)
		md[mdCount] = uint32(out)
	}

	// Table 6: mirror the count for control-plane reads.
	if err := e.tables[5].Apply(ctx); err != nil {
		return core.NotMarked, err
	}
	if _, err := e.countMirror.Access(ctx, port, func(uint32) (uint32, uint32) {
		return md[mdCount], 0
	}); err != nil {
		return core.NotMarked, err
	}

	// Final decision: instantaneous marking dominates (as in core).
	reason := core.NotMarked
	switch {
	case md[mdInstMark] == 1:
		reason = core.MarkInstantaneous
	case md[mdPstMark] == 1:
		reason = core.MarkPersistent
	}

	// Table 7: statistics counters.
	if err := e.tables[6].Apply(ctx); err != nil {
		return core.NotMarked, err
	}
	if _, err := e.markStats.Access(ctx, port, func(cur uint64) (uint64, uint64) {
		switch reason {
		case core.MarkInstantaneous:
			cur += 1 << 32
		case core.MarkPersistent:
			cur++
		}
		return cur, cur
	}); err != nil {
		return core.NotMarked, err
	}

	return reason, nil
}

// lutDelta returns pst_interval/sqrt(count) from the saturating LUT.
func (e *ECNSharpP4) lutDelta(count uint32) uint32 {
	if count >= sqrtLUTSize {
		count = sqrtLUTSize - 1
	}
	if count == 0 {
		count = 1
	}
	return e.sqrtLUT[count]
}

// Census reports the resource budget of the program, the §4 numbers.
type Census struct {
	Tables        int
	TableEntries  int
	Registers32   int
	Registers64   int
	RegisterBytes int
}

// Census computes the program's resource usage.
func (e *ECNSharpP4) Census() Census {
	regs32 := append(e.timeEmu.Registers(), e.firstAbove, e.markState, e.countMirror)
	regs64 := []*Reg64{e.pstState, e.markStats}
	bytes := 0
	for _, r := range regs32 {
		bytes += r.Bytes()
	}
	for _, r := range regs64 {
		bytes += r.Bytes()
	}
	entries := 0
	for _, t := range e.tables {
		entries += t.EntryCount()
	}
	return Census{
		Tables:        len(e.tables),
		TableEntries:  entries,
		Registers32:   len(regs32),
		Registers64:   len(regs64),
		RegisterBytes: bytes,
	}
}
