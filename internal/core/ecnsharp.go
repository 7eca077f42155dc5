// Package core implements the paper's primary contribution: the ECN♯
// marking algorithm ("Enabling ECN for Datacenter Networks with RTT
// Variations", CoNEXT 2019).
//
// ECN♯ marks a packet when either of two conditions holds:
//
//  1. Instantaneous congestion — the packet's sojourn time exceeds
//     ins_target, a threshold derived from a high-percentile base RTT
//     (Equation 2). This preserves throughput and burst tolerance.
//  2. Persistent congestion — the sojourn time has continuously exceeded
//     pst_target for at least one pst_interval (Algorithm 1), indicating a
//     standing queue contributed by flows whose base RTT is smaller than
//     the one the instantaneous threshold was derived from. Marking is then
//     conservative: one packet per interval, with the interval shrinking as
//     pst_interval / sqrt(marking_count) while the queue persists.
//
// The implementation is a pure state machine driven by (now, sojourn)
// observations so it can be reused by the queue-level AQM adapter
// (internal/aqm), the Tofino dataplane model (internal/tofino), and tests.
package core

import (
	"fmt"
	"math"

	"ecnsharp/internal/sim"
)

// LambdaECNTCP is the reaction factor λ of Equation 1/2 (K = λ·C·RTT,
// T = λ·RTT) for standard ECN-TCP, which halves its window on a mark.
// λ captures how aggressively the end-host congestion control reacts to a
// mark; DCTCP, cutting in proportion to the marked fraction, has λ ≈ 0.17
// in theory.
const LambdaECNTCP = 1.0

// ThresholdBytes computes Equation 1: the ideal instantaneous ECN marking
// threshold in bytes, K = λ × C × RTT, for link capacity in bits/second.
func ThresholdBytes(lambda, capacityBps float64, rtt sim.Time) int64 {
	return int64(lambda * capacityBps / 8 * rtt.Seconds())
}

// ThresholdTime computes Equation 2: the equivalent sojourn-time threshold,
// T = K/C = λ × RTT.
func ThresholdTime(lambda float64, rtt sim.Time) sim.Time {
	return sim.Time(lambda * float64(rtt))
}

// Schedule selects how the conservative marking interval evolves within a
// persistent-congestion episode.
type Schedule uint8

// Marking schedules.
const (
	// SqrtSchedule is Algorithm 1: the k-th mark of an episode follows the
	// previous by pst_interval / sqrt(k), so the marking rate ramps up
	// while the queue persists. This is the paper's design.
	SqrtSchedule Schedule = iota
	// FixedSchedule keeps the interval constant — an ablation showing why
	// the ramp matters (the `ablation` experiment).
	FixedSchedule
)

func (s Schedule) String() string {
	if s == FixedSchedule {
		return "fixed"
	}
	return "sqrt"
}

// Params are ECN♯'s three configuration parameters (Table 2).
type Params struct {
	// InsTarget is the instantaneous marking threshold on sojourn time,
	// derived from a high-percentile base RTT via Equation 2.
	InsTarget sim.Time
	// PstTarget is the persistent queueing target: the sojourn time above
	// which queueing is considered excess if sustained.
	PstTarget sim.Time
	// PstInterval is the observation window used both to confirm persistent
	// queueing and as the initial spacing of conservative marks. The paper
	// recommends roughly one worst-case (high-percentile) base RTT.
	PstInterval sim.Time
	// Schedule selects the marking-interval evolution; the zero value is
	// the paper's sqrt ramp.
	Schedule Schedule
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.InsTarget <= 0 {
		return fmt.Errorf("core: ins_target must be positive, got %v", p.InsTarget)
	}
	if p.PstTarget <= 0 {
		return fmt.Errorf("core: pst_target must be positive, got %v", p.PstTarget)
	}
	if p.PstInterval <= 0 {
		return fmt.Errorf("core: pst_interval must be positive, got %v", p.PstInterval)
	}
	if p.PstTarget > p.InsTarget {
		return fmt.Errorf("core: pst_target (%v) should not exceed ins_target (%v)",
			p.PstTarget, p.InsTarget)
	}
	return nil
}

// State holds Algorithm 1's variables (Table 2). The zero State is the
// correct initial state.
type State struct {
	// MarkingState reports whether ECN♯ is currently in a conservative
	// marking episode.
	MarkingState bool
	// MarkingCount is the number of packets marked in the current episode.
	MarkingCount int
	// MarkingNext is the absolute time of the next scheduled conservative mark.
	MarkingNext sim.Time
	// FirstAboveTime records when the sojourn time first exceeded
	// PstTarget; zero means "not currently above target".
	FirstAboveTime sim.Time
}

// Reason explains why a packet was marked.
type Reason uint8

// Marking reasons.
const (
	NotMarked Reason = iota
	// MarkInstantaneous: sojourn exceeded ins_target (burst control).
	MarkInstantaneous
	// MarkPersistent: conservative marking upon persistent queue buildup.
	MarkPersistent
)

func (r Reason) String() string {
	switch r {
	case NotMarked:
		return "none"
	case MarkInstantaneous:
		return "instantaneous"
	case MarkPersistent:
		return "persistent"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// ECNSharp is the reference implementation of the paper's marking scheme.
// It is driven once per dequeued packet via ShouldMark. Not safe for
// concurrent use; each switch queue owns one instance.
type ECNSharp struct {
	params Params
	state  State
}

// NewECNSharp builds an ECN♯ marker; Params are validated.
func NewECNSharp(p Params) (*ECNSharp, error) {
	e := new(ECNSharp)
	if err := e.Init(p); err != nil {
		return nil, err
	}
	return e, nil
}

// Init makes e, wherever it lives, a marker with parameters p in its
// initial state — for owners that hold an ECNSharp by value. Params are
// validated; on error e is left untouched.
func (e *ECNSharp) Init(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	*e = ECNSharp{params: p}
	return nil
}

// MustNewECNSharp panics on invalid params (for tables of fixed configs).
func MustNewECNSharp(p Params) *ECNSharp {
	e, err := NewECNSharp(p)
	if err != nil {
		panic(err)
	}
	return e
}

// Params returns the configured parameters.
func (e *ECNSharp) Params() Params { return e.params }

// State returns a copy of Algorithm 1's current variables.
func (e *ECNSharp) State() State { return e.state }

// ShouldMark decides whether the packet dequeued at time now with the given
// sojourn time must be ECN-marked, and why. It combines instantaneous
// marking (§3.2 "ECN marking based on instantaneous queue") with
// Algorithm 1's persistent marking. A packet is marked when either
// condition decides to mark it; the reason reported prefers the
// instantaneous condition since it is the one that bounds bursts.
func (e *ECNSharp) ShouldMark(now, sojourn sim.Time) Reason {
	persistent := e.PersistentMark(now, sojourn)
	if sojourn > e.params.InsTarget {
		return MarkInstantaneous
	}
	if persistent {
		return MarkPersistent
	}
	return NotMarked
}

// PersistentMark is Algorithm 1's ShouldPersistentMark procedure: the
// persistent-congestion decision alone, bypassing the instantaneous
// condition. Besides ShouldMark, the §3.5 variant calls it directly: it
// replaces cut-off instantaneous marking with probabilistic marking (for
// DCQCN-style transports) while keeping persistent marking unchanged.
func (e *ECNSharp) PersistentMark(now, sojourn sim.Time) bool {
	detected := e.isPersistentQueueBuildup(now, sojourn)
	s := &e.state
	if s.MarkingState {
		if !detected {
			s.MarkingState = false
			return false
		}
		if now > s.MarkingNext {
			s.MarkingCount++
			if e.params.Schedule == FixedSchedule {
				s.MarkingNext += e.params.PstInterval
			} else {
				s.MarkingNext += sim.Time(float64(e.params.PstInterval) /
					math.Sqrt(float64(s.MarkingCount)))
			}
			return true
		}
		return false
	}
	if detected {
		s.MarkingState = true
		s.MarkingCount = 1
		s.MarkingNext = now + e.params.PstInterval
		return true
	}
	return false
}

// isPersistentQueueBuildup is Algorithm 1's IsPersistentQueueBuildups
// procedure: true once the sojourn time has stayed above pst_target for a
// full pst_interval.
func (e *ECNSharp) isPersistentQueueBuildup(now, sojourn sim.Time) bool {
	s := &e.state
	if sojourn < e.params.PstTarget {
		s.FirstAboveTime = 0
		return false
	}
	if s.FirstAboveTime == 0 {
		s.FirstAboveTime = now
		return false
	}
	return now > s.FirstAboveTime+e.params.PstInterval
}
