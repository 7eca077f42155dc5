package transport

import (
	"fmt"

	"ecnsharp/internal/sim"
)

// Config holds transport parameters shared by all flows of a simulation.
type Config struct {
	// MSS is the maximum segment payload in bytes.
	MSS int `json:"mss,omitempty"`
	// InitCwndSegments is the initial congestion window in segments.
	InitCwndSegments int `json:"init_cwnd_segments,omitempty"`
	// MaxCwndSegments caps the congestion window, playing the role of the
	// receive window / rmem limit of a real stack. Without it a flow on an
	// uncongested equal-rate path grows its window without bound (nothing
	// ever marks or drops) and then dumps megabytes into the first queue
	// that appears.
	MaxCwndSegments int `json:"max_cwnd_segments,omitempty"`
	// MinRTO floors the retransmission timeout. Datacenter stacks tune
	// this to a few milliseconds; a single timeout then adds >1 ms to an
	// FCT, which is what ruins CoDel's incast numbers in Figure 11.
	MinRTO sim.Time `json:"min_rto,omitempty"`
	// MaxRTO caps exponential backoff.
	MaxRTO sim.Time `json:"max_rto,omitempty"`
	// InitialRTO is used before the first RTT sample.
	InitialRTO sim.Time `json:"initial_rto,omitempty"`
	// DelayedAckCount batches ACKs: the receiver acknowledges every N data
	// packets (1 disables delaying). The DCTCP CE-change rule still forces
	// an immediate ACK whenever the observed CE state flips.
	DelayedAckCount int `json:"delayed_ack_count,omitempty"`
	// DelayedAckTimeout bounds how long an ACK may be withheld.
	DelayedAckTimeout sim.Time `json:"delayed_ack_timeout,omitempty"`
	// MaxConsecTimeouts, when positive, bounds consecutive retransmission
	// timeouts: a flow whose (MaxConsecTimeouts+1)-th back-to-back RTO
	// fires gives up and fails instead of retrying forever. Zero keeps the
	// historical retry-forever behavior — the right choice on a healthy
	// network, where it cannot trigger; fault-injection runs set it so a
	// flow whose every path died terminates the run via RTO exhaustion
	// rather than deadlocking it.
	MaxConsecTimeouts int `json:"max_consec_timeouts,omitempty"`
	// Class is the service class stamped on the flow's packets, selecting
	// the egress queue under multi-queue scheduling (Figure 13).
	Class int `json:"class,omitempty"`
	// DCQCN, when non-nil, makes the flow rate-based: its Sender paces
	// MSS-byte segments at the DCQCN rate these parameters control, goes
	// back N on loss with a fixed MinRTO timer, and cuts its rate on
	// ECN-echo. Nil keeps the DCTCP window sender. The receiver is the same
	// either way, and so is the RTO budget (MaxConsecTimeouts).
	DCQCN *DCQCNConfig `json:"dcqcn,omitempty"`
}

// DefaultConfig returns the parameters used throughout the experiments:
// DCTCP endpoints as in §5.1, 1460-byte segments, IW10, 2 ms min-RTO,
// per-packet ACKs.
func DefaultConfig() Config {
	return Config{
		MSS:               1460,
		InitCwndSegments:  10,
		MaxCwndSegments:   512, // ≈750 KB, comfortably above any BDP here
		MinRTO:            2 * sim.Millisecond,
		MaxRTO:            sim.Second,
		InitialRTO:        2 * sim.Millisecond,
		DelayedAckCount:   1,
		DelayedAckTimeout: 500 * sim.Microsecond,
	}
}

// Validate checks config sanity.
func (c Config) Validate() error {
	if c.MSS <= 0 {
		return fmt.Errorf("transport: MSS must be positive, got %d", c.MSS)
	}
	if c.InitCwndSegments <= 0 {
		return fmt.Errorf("transport: InitCwndSegments must be positive, got %d", c.InitCwndSegments)
	}
	if c.MaxCwndSegments < c.InitCwndSegments {
		return fmt.Errorf("transport: MaxCwndSegments %d below InitCwndSegments %d",
			c.MaxCwndSegments, c.InitCwndSegments)
	}
	if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
		return fmt.Errorf("transport: invalid RTO bounds [%v, %v]", c.MinRTO, c.MaxRTO)
	}
	if c.InitialRTO <= 0 {
		return fmt.Errorf("transport: InitialRTO must be positive, got %v", c.InitialRTO)
	}
	if c.DelayedAckCount <= 0 {
		return fmt.Errorf("transport: DelayedAckCount must be >= 1, got %d", c.DelayedAckCount)
	}
	if c.DCQCN != nil {
		return c.DCQCN.Validate()
	}
	return nil
}
