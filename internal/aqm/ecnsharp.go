package aqm

import (
	"fmt"

	"ecnsharp/internal/core"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// ECNSharp adapts the reference core.ECNSharp state machine to the queue
// AQM interface. It is a pure dequeue-side scheme: both the instantaneous
// and persistent conditions act on the departing packet's sojourn time.
type ECNSharp struct {
	core     core.ECNSharp
	lastKind trace.MarkKind
}

// NewECNSharp builds an ECN♯ AQM with the given parameters.
func NewECNSharp(p core.Params) (*ECNSharp, error) {
	e := new(ECNSharp)
	if err := e.core.Init(p); err != nil {
		return nil, err
	}
	return e, nil
}

// MustNewECNSharp panics on invalid parameters.
func MustNewECNSharp(p core.Params) *ECNSharp {
	e, err := NewECNSharp(p)
	if err != nil {
		panic(err)
	}
	return e
}

// Name returns the scheme name with parameters.
func (e *ECNSharp) Name() string {
	p := e.core.Params()
	return fmt.Sprintf("ecnsharp(ins=%v,pst_target=%v,pst_interval=%v)",
		p.InsTarget, p.PstTarget, p.PstInterval)
}

// OnEnqueue never marks; ECN♯ is a dequeue-side scheme.
func (*ECNSharp) OnEnqueue(sim.Time, *packet.Packet, Backlog) bool { return false }

// OnDequeue marks per the combined instantaneous + persistent decision.
func (e *ECNSharp) OnDequeue(now sim.Time, _ *packet.Packet, sojourn sim.Time) bool {
	switch e.core.ShouldMark(now, sojourn) {
	case core.MarkInstantaneous:
		e.lastKind = trace.MarkInstantaneous
		return true
	case core.MarkPersistent:
		e.lastKind = trace.MarkPersistent
		return true
	default:
		return false
	}
}

// LastMarkKind implements MarkKinder: it attributes the most recent mark to
// the instantaneous or the persistent condition of ECN♯.
func (e *ECNSharp) LastMarkKind() trace.MarkKind { return e.lastKind }
