package transport

import (
	"fmt"

	"ecnsharp/internal/sim"
)

// DCQCN-lite: a rate-based sender in the style of DCQCN (Zhu et al.,
// SIGCOMM 2015), the RDMA congestion control the paper's §3.5 discusses.
// Where DCTCP windows react to the marked *fraction*, DCQCN paces packets
// at an explicit rate and reacts to congestion notifications. A flow is
// rate-based when its Config.DCQCN is set: its Sender then paces, repairs
// loss go-back-N (RoCE NICs do the same) and runs DCQCN's reaction point
// (see rateState). The receiver is the same Receiver: its per-packet ECN
// echo is the CNP signal.
//
// DCQCN expects *probabilistic* marking (RED-like, or ECN♯'s §3.5
// variant): with cut-off marking every flow crossing the threshold cuts
// simultaneously, which the `dcqcn` experiment shows as rate oscillation.

// DCQCNConfig parameterizes the rate controller. Segment size and the
// go-back-N timer come from the flow's Config (MSS, MinRTO).
type DCQCNConfig struct {
	// LineRateBps caps the sending rate (the NIC speed).
	LineRateBps float64
	// MinRateBps floors the rate so a flow always makes progress.
	MinRateBps float64
	// RaiBps is the additive-increase step.
	RaiBps float64
	// G is the α EWMA gain.
	G float64
	// AlphaTimer is the α-update and rate-increase period.
	AlphaTimer sim.Time
	// CNPInterval rate-limits decreases: at most one cut per interval.
	CNPInterval sim.Time
	// FastRecoverySteps is F: increase stages before additive increase.
	FastRecoverySteps int
}

// DefaultDCQCNConfig returns conventional parameters scaled to 10 GbE.
func DefaultDCQCNConfig() DCQCNConfig {
	return DCQCNConfig{
		LineRateBps:       10e9,
		MinRateBps:        10e6,
		RaiBps:            40e6,
		G:                 1.0 / 256.0, // the DCQCN paper's gain; larger values oscillate
		AlphaTimer:        55 * sim.Microsecond,
		CNPInterval:       50 * sim.Microsecond,
		FastRecoverySteps: 5,
	}
}

// Validate checks config sanity.
func (c DCQCNConfig) Validate() error {
	if c.LineRateBps <= 0 || c.MinRateBps <= 0 || c.MinRateBps > c.LineRateBps {
		return fmt.Errorf("transport: invalid DCQCN rates [%v, %v]", c.MinRateBps, c.LineRateBps)
	}
	if c.RaiBps <= 0 || c.G <= 0 || c.G > 1 {
		return fmt.Errorf("transport: invalid DCQCN Rai/G")
	}
	if c.AlphaTimer <= 0 || c.CNPInterval <= 0 {
		return fmt.Errorf("transport: invalid DCQCN timers")
	}
	if c.FastRecoverySteps < 1 {
		return fmt.Errorf("transport: invalid DCQCN F")
	}
	return nil
}
