package transport

import (
	"fmt"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// DCQCN-lite: a rate-based sender in the style of DCQCN (Zhu et al.,
// SIGCOMM 2015), the RDMA congestion control the paper's §3.5 discusses.
// Where DCTCP windows react to the marked *fraction*, DCQCN paces packets
// at an explicit rate and reacts to congestion notifications:
//
//   - Rate decrease: on the first ECN-echo per CNP interval, remember the
//     target rate (Rt ← Rc) and cut the current rate Rc by α/2, where α is
//     the usual EWMA congestion estimate.
//   - Rate increase: a periodic timer runs fast recovery (Rc ← (Rt+Rc)/2,
//     F stages), then additive increase (Rt += Rai), then hyper increase.
//
// The receiver side reuses Receiver unchanged: its per-packet ECN echo is
// the CNP signal. Loss is recovered go-back-N (RoCE NICs do the same),
// driven by duplicate ACKs or an RTO. A flow is rate-based when its
// Config.DCQCN is set; FlowTable.Launch then starts it in place of the
// window Sender.
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

// DCQCNSender is the rate-based sending endpoint of one flow. It has no
// RTO budget (Config.MaxConsecTimeouts is a window-sender rule): a rate
// flow retries until it finishes, and never fails.
type DCQCNSender struct {
	eng    *sim.Engine
	cfg    DCQCNConfig
	mss    int64
	minRTO sim.Time
	host   *device.Host

	flowID uint64
	dst    int
	size   int64

	sndUna int64
	sndNxt int64

	// Rate state, bits/second.
	rc float64 // current (paced) rate
	rt float64 // target rate

	alpha      float64
	cnpSeen    bool // CNP observed since the last alpha update
	lastCut    sim.Time
	riStage    int // rate-increase stages since the last cut
	dupAcks    int
	recovering bool // go-back-N issued; ignore NAKs until sndUna advances
	sendTimer  sim.Event
	rtoTimer   sim.Event
	alphaTimer sim.Event

	// jitter desynchronizes this flow's periodic timer from its peers
	// (hardware timers are never phase-locked; simulated ones are, and
	// phase-locked AIMD timers produce synchronized rate oscillations).
	jitter sim.Time

	started  bool
	finished bool
	startAt  sim.Time
	onDone   func(fct sim.Time)

	// Stats mirror the window-based sender's observability.
	Stats struct {
		SentPackets int64
		Retransmits int64
		Timeouts    int64
		RateCuts    int64
	}
}

// NewDCQCNSender builds (but does not start) a DCQCN-lite sender for a
// flow whose cfg.DCQCN is set.
func NewDCQCNSender(eng *sim.Engine, cfg Config, host *device.Host,
	flowID uint64, dst int, size int64, onDone func(fct sim.Time)) *DCQCNSender {
	if cfg.DCQCN == nil {
		panic("transport: DCQCN sender needs Config.DCQCN")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if size <= 0 {
		panic("transport: DCQCN flow needs positive size")
	}
	rate := *cfg.DCQCN
	return &DCQCNSender{
		eng: eng, cfg: rate, mss: int64(cfg.MSS), minRTO: cfg.MinRTO, host: host,
		flowID: flowID, dst: dst, size: size,
		rc: rate.LineRateBps, rt: rate.LineRateBps,
		alpha:  1,
		jitter: sim.Time(flowID%13) * sim.Microsecond,
		onDone: onDone,
	}
}

// The start, paced send loop and periodic timers of every DCQCN sender:
// the sender is the argument, so scheduling one allocates nothing.
func dcqcnStart(a any)    { a.(*DCQCNSender).Start() }
func dcqcnSendLoop(a any) { a.(*DCQCNSender).sendLoop() }
func dcqcnAlpha(a any)    { a.(*DCQCNSender).onAlphaTimer() }
func dcqcnRTO(a any)      { a.(*DCQCNSender).onRTO() }

// Rate returns the current sending rate in bits/second.
func (s *DCQCNSender) Rate() float64 { return s.rc }

// Alpha returns the congestion estimate (for tests).
func (s *DCQCNSender) Alpha() float64 { return s.alpha }

// Finished reports completion.
func (s *DCQCNSender) Finished() bool { return s.finished }

// Start registers for ACKs and begins paced transmission.
func (s *DCQCNSender) Start() {
	if s.started {
		panic("transport: DCQCN sender started twice")
	}
	s.started = true
	s.startAt = s.eng.Now()
	s.host.Register(s.flowID, s)
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.FlowStart, At: int64(s.eng.Now()),
			Port: -1, Queue: -1, FlowID: s.flowID, Src: s.host.ID, Dst: s.dst,
			Size: s.size})
	}
	s.scheduleAlpha()
	s.sendLoop()
}

// traceRate emits a RateUpdate event carrying the current paced rate; it is
// called after every cut and every periodic increase stage.
func (s *DCQCNSender) traceRate() {
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.RateUpdate, At: int64(s.eng.Now()),
			Port: -1, Queue: -1, FlowID: s.flowID, Src: s.host.ID, Dst: s.dst,
			Value: s.rc})
	}
}

// HandlePacket implements device.PacketHandler for ACKs.
func (s *DCQCNSender) HandlePacket(now sim.Time, p *packet.Packet) {
	if p.Kind != packet.Ack || s.finished {
		return
	}
	if p.ECE {
		s.cnpSeen = true
		s.maybeCut(now)
	}
	ack := p.AckSeq
	if ack > s.sndNxt {
		ack = s.sndNxt
	}
	if ack > s.sndUna {
		s.sndUna = ack
		s.dupAcks = 0
		s.recovering = false
		s.armRTO()
		if s.sndUna >= s.size {
			s.finish(now)
			return
		}
		return
	}
	// Duplicate cumulative ACKs play the role of RoCE NAKs. While a
	// go-back-N is already in flight, further duplicates are echoes of the
	// retransmission burst itself and must not re-trigger it.
	if !s.recovering && s.sndUna < s.sndNxt && p.AckSeq == s.sndUna {
		s.dupAcks++
		if s.dupAcks == 3 {
			s.dupAcks = 0
			s.goBackN()
		}
	}
}

// maybeCut applies the DCQCN rate decrease, at most once per CNP interval.
func (s *DCQCNSender) maybeCut(now sim.Time) {
	if s.lastCut != 0 && now < s.lastCut+s.cfg.CNPInterval {
		return
	}
	s.lastCut = now
	s.Stats.RateCuts++
	s.rt = s.rc
	s.rc *= 1 - s.alpha/2
	if s.rc < s.cfg.MinRateBps {
		s.rc = s.cfg.MinRateBps
	}
	s.riStage = 0
	s.traceRate()
}

// scheduleAlpha runs the periodic α update and rate increase.
func (s *DCQCNSender) scheduleAlpha() {
	s.alphaTimer = s.eng.AfterArg(s.cfg.AlphaTimer+s.jitter, dcqcnAlpha, s)
}

func (s *DCQCNSender) onAlphaTimer() {
	if s.finished {
		return
	}
	// α update: toward 1 if a CNP arrived this period, toward 0 otherwise.
	if s.cnpSeen {
		s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
		s.cnpSeen = false
	} else {
		s.alpha = (1 - s.cfg.G) * s.alpha
	}
	// Rate increase runs every period; a cut resets the stage counter,
	// so recovery restarts from fast recovery after each decrease.
	s.increase()
	s.scheduleAlpha()
}

// increase runs one rate-increase stage (fast recovery, then additive,
// then hyper).
func (s *DCQCNSender) increase() {
	s.riStage++
	switch {
	case s.riStage <= s.cfg.FastRecoverySteps:
		// Fast recovery toward the pre-cut target.
	case s.riStage <= 2*s.cfg.FastRecoverySteps:
		s.rt += s.cfg.RaiBps
	default:
		s.rt += 5 * s.cfg.RaiBps
	}
	if s.rt > s.cfg.LineRateBps {
		s.rt = s.cfg.LineRateBps
	}
	s.rc = (s.rt + s.rc) / 2
	if s.rc > s.cfg.LineRateBps {
		s.rc = s.cfg.LineRateBps
	}
	s.traceRate()
}

// sendLoop paces one packet per iteration at the current rate.
func (s *DCQCNSender) sendLoop() {
	if s.finished || s.sndNxt >= s.size {
		return
	}
	n := s.size - s.sndNxt
	if n > s.mss {
		n = s.mss
	}
	s.emit(s.sndNxt, int(n))
	s.sndNxt += n
	if !s.rtoTimer.Valid() {
		s.armRTO()
	}
	if s.sndNxt < s.size {
		gap := sim.Time(float64(int(n)+packet.HeaderSize) * 8 / s.rc * float64(sim.Second))
		s.sendTimer = s.eng.AfterArg(gap, dcqcnSendLoop, s)
	}
}

func (s *DCQCNSender) emit(seq int64, n int) {
	s.Stats.SentPackets++
	p := s.host.AllocPacket()
	p.FlowID = s.flowID
	p.Src = s.host.ID
	p.Dst = s.dst
	p.Kind = packet.Data
	p.Seq = seq
	p.PayloadLen = n
	p.ECN = packet.ECT
	p.TSVal = s.eng.Now()
	s.host.Send(p)
}

// goBackN rewinds transmission to the first unacknowledged byte.
func (s *DCQCNSender) goBackN() {
	s.Stats.Retransmits++
	s.recovering = true
	if s.sendTimer.Valid() {
		s.eng.Cancel(s.sendTimer)
		s.sendTimer = sim.Event{}
	}
	s.sndNxt = s.sndUna
	s.armRTO()
	s.sendLoop()
}

func (s *DCQCNSender) armRTO() {
	if s.rtoTimer.Valid() {
		s.eng.Cancel(s.rtoTimer)
	}
	s.rtoTimer = s.eng.AfterArg(s.minRTO, dcqcnRTO, s)
}

func (s *DCQCNSender) onRTO() {
	s.rtoTimer = sim.Event{}
	if s.finished || s.sndUna >= s.sndNxt {
		return
	}
	s.Stats.Timeouts++
	s.goBackN()
}

func (s *DCQCNSender) finish(now sim.Time) {
	s.finished = true
	for _, ev := range [...]sim.Event{s.sendTimer, s.rtoTimer, s.alphaTimer} {
		if ev.Valid() {
			s.eng.Cancel(ev)
		}
	}
	s.host.Unregister(s.flowID)
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.FlowFinish, At: int64(now),
			Port: -1, Queue: -1, FlowID: s.flowID, Src: s.host.ID, Dst: s.dst,
			Size: s.size, Dur: int64(now - s.startAt)})
	}
	if s.onDone != nil {
		s.onDone(now - s.startAt)
	}
}
