package transport

import (
	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
)

// EndWindow runs the ACK path's window-boundary step on s: frac, the
// window's marked fraction, is folded into DCTCP's α.
func (s *Sender) EndWindow(frac float64) { s.endWindow(frac) }

// SameConfig reports whether every endpoint points at one Config.
func SameConfig(s1, s2 *Sender, r1, r2 *Receiver) bool {
	return s1.cfg == s2.cfg && s1.cfg == r1.cfg && s1.cfg == r2.cfg
}

// Engine returns the engine the sender runs on (its source host's domain).
func (s *Sender) Engine() *sim.Engine { return s.eng }

// Cwnd returns the congestion window in bytes (for tests and tracing).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Alpha returns the congestion estimate α (for tests).
func (s *Sender) Alpha() float64 { return s.alpha }

// Rate returns a rate flow's current sending rate in bits/second, and 0
// for a window flow.
func (s *Sender) Rate() float64 {
	if s.rate == nil {
		return 0
	}
	return s.rate.rc
}

// RTO returns the current retransmission timeout (before backoff), which
// rttSample clamps to [MinRTO, MaxRTO] — the property test's invariant.
func (s *Sender) RTO() sim.Time { return s.rto }

// Backoff returns the current exponential-backoff exponent.
func (s *Sender) Backoff() uint { return s.backoff }

// Engine returns the engine the receiver runs on (its host's domain).
func (r *Receiver) Engine() *sim.Engine { return r.eng }

// Len returns the number of flows in the table.
func (t *FlowTable) Len() int { return len(t.IDs) }

// NewReceiver builds a receiver for flowID arriving at host from src, on
// its own copy of cfg. It registers itself immediately.
func NewReceiver(eng *sim.Engine, cfg Config, host *device.Host, flowID uint32, src int) *Receiver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return newReceiver(eng, &cfg, packet.ClassOf(cfg.Class), host, flowID, src)
}
