package aqm

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// REDInstant is the DCTCP-modified RED the paper calls DCTCP-RED:
// instantaneous marking with a single cut-off threshold Kmin = Kmax = K,
// applied at enqueue to the instantaneous backlog in bytes (how the DCTCP
// paper and the testbed configure switches, thresholds quoted in KB). Its
// sojourn-time equivalent (K = C·T, Equation 2) is TCN, which is why the
// paper notes DCTCP-RED equals TCN when only one queue is active.
type REDInstant struct {
	// KBytes is the queue-length threshold.
	KBytes int64

	label string
}

// NewREDInstantBytes builds a queue-length DCTCP-RED with threshold k bytes.
func NewREDInstantBytes(k int64) *REDInstant {
	return &REDInstant{KBytes: k, label: fmt.Sprintf("dctcp-red(K=%dB)", k)}
}

// Name identifies the instance and its threshold.
func (r *REDInstant) Name() string { return r.label }

// LastMarkKind implements MarkKinder: DCTCP-RED's single cut-off threshold
// is an instantaneous condition.
func (*REDInstant) LastMarkKind() trace.MarkKind { return trace.MarkInstantaneous }

// OnEnqueue marks when the instantaneous queue length (including this
// packet) exceeds K.
func (r *REDInstant) OnEnqueue(_ sim.Time, p *packet.Packet, b Backlog) bool {
	return b.Bytes+int64(p.Size()) > r.KBytes
}

// OnDequeue never marks; DCTCP-RED is an enqueue-side scheme.
func (*REDInstant) OnDequeue(sim.Time, *packet.Packet, sim.Time) bool { return false }

// TCN is the instantaneous sojourn-time marker from "Enabling ECN over
// Generic Packet Scheduling" (CoNEXT 2016): mark at dequeue when the
// packet's sojourn time exceeds a fixed threshold. Using sojourn time
// instead of queue length makes the threshold meaningful under arbitrary
// packet schedulers, which is why the Figure 13 experiment compares
// against it.
type TCN struct {
	// Threshold is the sojourn-time marking threshold.
	Threshold sim.Time
}

// NewTCN builds a TCN marker with the given sojourn threshold.
func NewTCN(threshold sim.Time) *TCN { return &TCN{Threshold: threshold} }

// Name returns "tcn".
func (t *TCN) Name() string { return fmt.Sprintf("tcn(T=%v)", t.Threshold) }

// LastMarkKind implements MarkKinder: TCN marks on the instantaneous
// sojourn time only.
func (*TCN) LastMarkKind() trace.MarkKind { return trace.MarkInstantaneous }

// OnEnqueue never marks; TCN is a dequeue-side scheme.
func (*TCN) OnEnqueue(sim.Time, *packet.Packet, Backlog) bool { return false }

// OnDequeue marks when sojourn exceeds the threshold.
func (t *TCN) OnDequeue(_ sim.Time, _ *packet.Packet, sojourn sim.Time) bool {
	return sojourn > t.Threshold
}

// RED is classic min/max-threshold probabilistic marking on the
// instantaneous queue length, as required by DCQCN-style transports
// (§3.5): below Kmin never mark, above Kmax always mark, and in between
// mark with probability rising linearly to Pmax.
type RED struct {
	KminBytes int64
	KmaxBytes int64
	Pmax      float64
	rng       *rand.Rand
}

// NewRED builds a probabilistic RED marker. rng must be non-nil; it keeps
// the simulation deterministic under a fixed seed.
func NewRED(kmin, kmax int64, pmax float64, rng *rand.Rand) *RED {
	if kmax < kmin {
		panic("aqm: RED requires Kmax >= Kmin")
	}
	if pmax < 0 || pmax > 1 {
		panic("aqm: RED Pmax must be in [0,1]")
	}
	if rng == nil {
		panic("aqm: RED requires a rand source")
	}
	return &RED{KminBytes: kmin, KmaxBytes: kmax, Pmax: pmax, rng: rng}
}

// Name returns the scheme name with thresholds.
func (r *RED) Name() string {
	return fmt.Sprintf("red(Kmin=%dB,Kmax=%dB,Pmax=%.2f)", r.KminBytes, r.KmaxBytes, r.Pmax)
}

// LastMarkKind implements MarkKinder: every RED mark is a draw from the
// probabilistic marking curve.
func (*RED) LastMarkKind() trace.MarkKind { return trace.MarkProbabilistic }

// OnEnqueue applies the RED marking curve to the instantaneous backlog.
func (r *RED) OnEnqueue(_ sim.Time, p *packet.Packet, b Backlog) bool {
	q := b.Bytes + int64(p.Size())
	switch {
	case q <= r.KminBytes:
		return false
	case q >= r.KmaxBytes:
		return true
	default:
		frac := float64(q-r.KminBytes) / float64(r.KmaxBytes-r.KminBytes)
		return r.rng.Float64() < frac*r.Pmax
	}
}

// OnDequeue never marks; RED is an enqueue-side scheme.
func (*RED) OnDequeue(sim.Time, *packet.Packet, sim.Time) bool { return false }
