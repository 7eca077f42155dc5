package aqm

import (
	"fmt"
	"math"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// CoDel is the Controlling-Queue-Delay AQM (Nichols & Jacobson, 2012)
// adapted to ECN marking, as the paper deploys it on the Tofino testbed:
// wherever the original algorithm would drop, this implementation sets CE.
//
// CoDel tracks whether the minimum sojourn time over a sliding Interval
// stays above Target; if so, it enters a marking episode, marking one
// packet and scheduling the next mark Interval/sqrt(count) later. It has
// no instantaneous component, which is exactly the weakness ECN♯ fixes:
// under incast bursts CoDel reacts a full interval late and the buffer
// overflows (Figures 10–11).
type CoDel struct {
	// Target is the acceptable minimum sojourn time.
	Target sim.Time
	// Interval is the observation window (≈ one worst-case RTT).
	Interval sim.Time

	firstAboveTime sim.Time // when sojourn first went above Target (+Interval)
	markNext       sim.Time // next scheduled mark while in an episode
	count          int      // marks in the current episode
	lastCount      int      // count at the end of the previous episode
	marking        bool     // inside a marking episode
}

// NewCoDel builds a CoDel marker with the given target and interval.
func NewCoDel(target, interval sim.Time) *CoDel {
	if target <= 0 || interval <= 0 {
		panic("aqm: CoDel target and interval must be positive")
	}
	return &CoDel{Target: target, Interval: interval}
}

// Name returns the scheme name with parameters.
func (c *CoDel) Name() string {
	return fmt.Sprintf("codel(target=%v,interval=%v)", c.Target, c.Interval)
}

// LastMarkKind implements MarkKinder: every CoDel mark comes from the
// persistent-congestion control law (CoDel has no instantaneous component).
func (*CoDel) LastMarkKind() trace.MarkKind { return trace.MarkPersistent }

// OnEnqueue never marks; CoDel is a dequeue-side scheme.
func (*CoDel) OnEnqueue(sim.Time, *packet.Packet, Backlog) bool { return false }

// OnDequeue runs the CoDel control law on the departing packet.
func (c *CoDel) OnDequeue(now sim.Time, _ *packet.Packet, sojourn sim.Time) bool {
	okToMark := c.shouldMark(now, sojourn)
	if c.marking {
		if !okToMark {
			c.marking = false
			return false
		}
		if now >= c.markNext {
			c.count++
			c.markNext += c.controlInterval()
			return true
		}
		return false
	}
	if !okToMark {
		return false
	}
	// Entering a marking episode. If we left the previous episode recently,
	// resume from an elevated count so the marking rate ramps up faster
	// (the standard CoDel re-entry heuristic).
	c.marking = true
	if now-c.markNext < c.Interval && c.lastCount > 2 {
		c.count = c.lastCount - 2
	} else {
		c.count = 1
	}
	c.lastCount = c.count
	c.markNext = now + c.controlInterval()
	return true
}

// shouldMark implements CoDel's minimum-sojourn tracking: true once the
// sojourn time has stayed at or above Target for a full Interval.
func (c *CoDel) shouldMark(now, sojourn sim.Time) bool {
	if sojourn < c.Target {
		c.firstAboveTime = 0
		if c.marking {
			c.lastCount = c.count
		}
		return false
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now + c.Interval
		return false
	}
	return now >= c.firstAboveTime
}

// controlInterval returns Interval / sqrt(count).
func (c *CoDel) controlInterval() sim.Time {
	return sim.Time(float64(c.Interval) / math.Sqrt(float64(c.count)))
}
