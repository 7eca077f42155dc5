package aqm

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/core"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// ECNSharpProb is the §3.5 extension sketch: ECN♯ for transports that
// need RED-style probabilistic instantaneous marking to converge fairly
// (DCQCN). The cut-off instantaneous condition becomes a linear marking
// ramp on sojourn time between TMin and TMax (probability 0 → Pmax),
// while the persistent-congestion marking of Algorithm 1 is kept
// unchanged — it is already probabilistic in nature, as the paper notes.
type ECNSharpProb struct {
	// TMin/TMax bound the probabilistic ramp on sojourn time; they play
	// the role of DCQCN's Kmin/Kmax translated through Equation 2.
	TMin sim.Time
	TMax sim.Time
	// Pmax is the marking probability at TMax; beyond TMax every packet
	// is marked.
	Pmax float64

	core     core.ECNSharp
	rng      *rand.Rand
	lastKind trace.MarkKind
}

// NewECNSharpProb builds the probabilistic variant. The persistent
// parameters come from p (p.InsTarget is ignored in favour of the ramp but
// must still validate, so pass TMax there). rng must be non-nil.
func NewECNSharpProb(p core.Params, tmin, tmax sim.Time, pmax float64, rng *rand.Rand) (*ECNSharpProb, error) {
	if tmax < tmin || tmin <= 0 {
		return nil, fmt.Errorf("aqm: invalid ramp [%v, %v]", tmin, tmax)
	}
	if pmax <= 0 || pmax > 1 {
		return nil, fmt.Errorf("aqm: Pmax %v out of (0,1]", pmax)
	}
	if rng == nil {
		return nil, fmt.Errorf("aqm: ECNSharpProb requires a rand source")
	}
	e := &ECNSharpProb{TMin: tmin, TMax: tmax, Pmax: pmax, rng: rng}
	if err := e.core.Init(p); err != nil {
		return nil, err
	}
	return e, nil
}

// Name returns the scheme name with the ramp parameters.
func (e *ECNSharpProb) Name() string {
	return fmt.Sprintf("ecnsharp-prob(Tmin=%v,Tmax=%v,Pmax=%.2f)", e.TMin, e.TMax, e.Pmax)
}

// OnEnqueue never marks; both conditions act on sojourn time at dequeue.
func (*ECNSharpProb) OnEnqueue(sim.Time, *packet.Packet, Backlog) bool { return false }

// OnDequeue combines the probabilistic ramp with Algorithm 1.
func (e *ECNSharpProb) OnDequeue(now sim.Time, _ *packet.Packet, sojourn sim.Time) bool {
	persistent := e.core.PersistentMark(now, sojourn)
	if e.rampMark(sojourn) {
		e.lastKind = trace.MarkProbabilistic
		return true
	}
	if persistent {
		e.lastKind = trace.MarkPersistent
	}
	return persistent
}

// LastMarkKind implements MarkKinder: it attributes the most recent mark to
// the probabilistic ramp or to Algorithm 1's persistent condition.
func (e *ECNSharpProb) LastMarkKind() trace.MarkKind { return e.lastKind }

// rampMark applies the RED-style probability curve to the sojourn time.
func (e *ECNSharpProb) rampMark(sojourn sim.Time) bool {
	switch {
	case sojourn <= e.TMin:
		return false
	case sojourn >= e.TMax:
		return true
	default:
		frac := float64(sojourn-e.TMin) / float64(e.TMax-e.TMin)
		return e.rng.Float64() < frac*e.Pmax
	}
}
