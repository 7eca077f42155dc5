// Package experiments reproduces the paper's evaluation: one runner per
// table/figure, built on the simulator substrate. Each experiment returns
// structured results plus a formatted text table whose rows mirror what
// the paper plots.
package experiments

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
)

// SchemeKind enumerates the AQM schemes compared in §5.
type SchemeKind int

// Schemes under comparison.
const (
	// SchemeREDTail is DCTCP-RED with the threshold derived from a
	// high-percentile (90th) RTT — the "current practice" baseline.
	SchemeREDTail SchemeKind = iota
	// SchemeREDAvg is DCTCP-RED with the threshold from the average RTT.
	SchemeREDAvg
	// SchemeREDFixed is DCTCP-RED with an explicit threshold (Figure 2's
	// sweep).
	SchemeREDFixed
	// SchemeCoDel marks only on persistent congestion.
	SchemeCoDel
	// SchemeTCN marks on instantaneous sojourn time.
	SchemeTCN
	// SchemeECNSharp is the paper's contribution.
	SchemeECNSharp
	// SchemeRED is min/max RED: probabilistic marking on queue length, as
	// DCQCN deployments configure it (§3.5).
	SchemeRED
	// SchemeECNSharpProb is §3.5's ECN♯ variant: a probabilistic ramp on
	// sojourn time instead of the cut-off, plus Algorithm 1's persistent
	// marking.
	SchemeECNSharpProb

	numSchemeKinds // count of kinds; keep last
)

// Scheme is a fully parameterized AQM configuration for one run.
type Scheme struct {
	Kind SchemeKind `json:"kind,omitempty"`
	// Label names the scheme in result tables.
	Label string `json:"label,omitempty"`

	// KBytes is the queue-length threshold for the DCTCP-RED variants,
	// and the top of SchemeRED's ramp.
	KBytes int64 `json:"k_bytes,omitempty"`
	// Target/Interval parameterize CoDel.
	Target   sim.Time `json:"target,omitempty"`
	Interval sim.Time `json:"interval,omitempty"`
	// TCNThreshold parameterizes TCN.
	TCNThreshold sim.Time `json:"tcn_threshold,omitempty"`
	// Params parameterize ECN♯. For SchemeECNSharpProb, InsTarget is the
	// top of the ramp.
	Params core.Params `json:"params"`
	// Ramp parameterizes the two randomized kinds.
	Ramp Ramp `json:"ramp"`
}

// Ramp is the probabilistic part of SchemeRED and SchemeECNSharpProb: the
// marking probability rises linearly from 0 at the floor to Pmax at the
// top, above which every packet is marked. The top is the scheme's own
// threshold (KBytes, or Params.InsTarget).
type Ramp struct {
	// KminBytes is SchemeRED's floor.
	KminBytes int64 `json:"kmin_bytes,omitempty"`
	// TMin is SchemeECNSharpProb's floor.
	TMin sim.Time `json:"t_min,omitempty"`
	// Pmax is the marking probability at the top.
	Pmax float64 `json:"pmax,omitempty"`
}

// Factory compiles s into the per-queue AQM constructor for a run. The
// randomized kinds draw from rng, which must then be non-nil. The ECN♯
// kinds validate their parameters here, once, and every marker the
// constructor builds shares that one copy; invalid ones panic.
func (s Scheme) Factory(rng *rand.Rand) func(q int) aqm.AQM {
	switch s.Kind {
	case SchemeREDTail, SchemeREDAvg, SchemeREDFixed:
		k := s.KBytes
		return func(int) aqm.AQM { return aqm.NewREDInstantBytes(k) }
	case SchemeCoDel:
		target, interval := s.Target, s.Interval
		return func(int) aqm.AQM { return aqm.NewCoDel(target, interval) }
	case SchemeTCN:
		th := s.TCNThreshold
		return func(int) aqm.AQM { return aqm.NewTCN(th) }
	case SchemeECNSharp:
		p := s.sharedParams()
		return func(int) aqm.AQM { return aqm.SharedECNSharp(p) }
	case SchemeRED:
		kmin, kmax, pmax := s.Ramp.KminBytes, s.KBytes, s.Ramp.Pmax
		return func(int) aqm.AQM { return aqm.NewRED(kmin, kmax, pmax, rng) }
	case SchemeECNSharpProb:
		p, r := s.sharedParams(), s.Ramp
		return func(int) aqm.AQM {
			a, err := aqm.NewECNSharpProb(p, r.TMin, p.InsTarget, r.Pmax, rng)
			if err != nil {
				panic(err)
			}
			return a
		}
	default:
		panic(fmt.Sprintf("experiments: unknown scheme kind %d", s.Kind))
	}
}

// sharedParams validates s.Params and returns the one copy of them that the
// markers of the compiled scheme share.
func (s Scheme) sharedParams() *core.Params {
	p := s.Params
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &p
}

// TestbedSchemes returns the four §5.2 testbed configurations with the
// paper's literal parameters: DCTCP-RED-Tail 250 KB, DCTCP-RED-AVG 80 KB,
// CoDel interval 200 µs / target 85 µs, ECN♯ ins_target 200 µs /
// pst_interval 200 µs / pst_target 85 µs.
func TestbedSchemes() []Scheme {
	return []Scheme{
		REDTail(250_000),
		REDAvg(80_000),
		CoDelScheme(85*sim.Microsecond, 200*sim.Microsecond),
		ECNSharpScheme(core.Params{
			InsTarget:   200 * sim.Microsecond,
			PstTarget:   85 * sim.Microsecond,
			PstInterval: 200 * sim.Microsecond,
		}),
	}
}

// REDTail builds the current-practice baseline with threshold k bytes.
func REDTail(k int64) Scheme {
	return Scheme{Kind: SchemeREDTail, Label: "DCTCP-RED-Tail", KBytes: k}
}

// REDAvg builds the average-RTT DCTCP-RED variant with threshold k bytes.
func REDAvg(k int64) Scheme {
	return Scheme{Kind: SchemeREDAvg, Label: "DCTCP-RED-AVG", KBytes: k}
}

// REDFixed builds a DCTCP-RED with an arbitrary threshold (Figure 2).
func REDFixed(k int64) Scheme {
	return Scheme{Kind: SchemeREDFixed, Label: fmt.Sprintf("DCTCP-RED(%dKB)", k/1000), KBytes: k}
}

// CoDelScheme builds the CoDel baseline.
func CoDelScheme(target, interval sim.Time) Scheme {
	return Scheme{Kind: SchemeCoDel, Label: "CoDel", Target: target, Interval: interval}
}

// TCNScheme builds the TCN baseline.
func TCNScheme(threshold sim.Time) Scheme {
	return Scheme{Kind: SchemeTCN, Label: "TCN", TCNThreshold: threshold}
}

// ECNSharpScheme builds the paper's scheme.
func ECNSharpScheme(p core.Params) Scheme {
	return Scheme{Kind: SchemeECNSharp, Label: "ECN#", Params: p}
}

// DeriveSchemes computes Tail/AVG/ECN♯ configurations from an RTT
// distribution the way §3.4 prescribes: instantaneous thresholds from the
// 90th-percentile RTT via Equation 1/2, pst_interval ≈ the high-percentile
// RTT, pst_target ≥ λ × average RTT.
func DeriveSchemes(d rttvar.RTTDistribution, capacityBps float64) (tail, avg, sharp Scheme) {
	p90 := d.Percentile(90)
	mean := d.Mean()
	tail = REDTail(core.ThresholdBytes(core.LambdaECNTCP, capacityBps, p90))
	avg = REDAvg(core.ThresholdBytes(core.LambdaECNTCP, capacityBps, mean))
	sharp = ECNSharpScheme(core.Params{
		InsTarget:   core.ThresholdTime(core.LambdaECNTCP, p90),
		PstTarget:   core.ThresholdTime(0.6, mean),
		PstInterval: core.ThresholdTime(core.LambdaECNTCP, p90),
	})
	return tail, avg, sharp
}
