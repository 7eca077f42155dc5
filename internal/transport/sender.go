package transport

import (
	"fmt"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// Sender is the transmitting endpoint of one flow, in one of two modes.
//
// A window flow (Config.DCQCN nil) is DCTCP: slow start, congestion
// avoidance, fast retransmit on three duplicate ACKs with NewReno
// partial-ACK recovery, retransmission timeouts with exponential backoff,
// and at most one ECN-echo cut per window, by α/2.
//
// A rate flow (Config.DCQCN set) is DCQCN-lite: it paces segments at its
// current rate, repairs loss go-back-N (on three duplicate ACKs, or a
// timeout at a fixed MinRTO), and reacts to ECN-echo with DCQCN's rate cut
// and staged increase (see rateState).
//
// Both modes share the byte stream, the segment emitter, the RTO timer,
// the RTO budget (Config.MaxConsecTimeouts) and the completion and
// failure bookkeeping in the flow's FlowTable row.
type Sender struct {
	eng *sim.Engine
	// cfg is the configuration every flow of the table shares; the flow's
	// own service class is class.
	cfg  *Config
	host *device.Host

	// table and row locate the flow's FlowTable row, where finish and
	// fail record the outcome.
	table *FlowTable
	row   int

	// rate is the pacing and DCQCN reaction state of a rate flow; nil for
	// a window flow.
	rate *rateState

	flowID uint32
	class  uint8
	dst    int
	size   int64

	// Sequence state (byte stream [0, size)).
	sndUna int64 // oldest unacknowledged byte
	sndNxt int64 // next byte to send

	// Congestion state, in bytes.
	cwnd     float64
	ssthresh float64

	dupAcks    int
	inRecovery bool
	recover    int64 // sndNxt when recovery began

	// CWR: at most one multiplicative decrease per window of data.
	cwr    bool
	cwrEnd int64

	// alpha is the congestion estimate in [0, 1]: DCTCP's marked-fraction
	// EWMA, updated once per window, or DCQCN's CNP EWMA, updated once per
	// rate-timer period (see ewma).
	alpha float64

	// DCTCP per-window accounting for the α estimator.
	winEnd      int64
	bytesAcked  int64
	bytesMarked int64

	// RTT estimation (RFC 6298).
	srtt      sim.Time
	rttvar    sim.Time
	rto       sim.Time
	hasSample bool
	backoff   uint

	rtoTimer sim.Event

	started   bool
	finished  bool
	startTime sim.Time

	// RTO-exhaustion state (see Config.MaxConsecTimeouts).
	consecTO int
	failed   bool

	// Stats is the sender's observability surface.
	Stats SenderStats
}

// SenderStats counts transport events for metrics and tests.
type SenderStats struct {
	SentPackets    int64
	SentBytes      int64
	Retransmits    int64 // segments resent; for a rate flow, go-back-N rewinds
	Timeouts       int64
	FastRecoveries int64
	ECECuts        int64 // window cuts, or rate cuts for a rate flow
	AcksReceived   int64
}

// rateState is a rate flow's DCQCN reaction point (Zhu et al., SIGCOMM
// 2015), with Config.DCQCN's parameters:
//
//   - Rate decrease: on the first ECN-echo per CNP interval, remember the
//     target rate (Rt ← Rc) and cut the current rate Rc by α/2.
//   - Rate increase: a periodic timer updates α and runs fast recovery
//     (Rc ← (Rt+Rc)/2, F stages), then additive increase (Rt += Rai), then
//     hyper increase.
type rateState struct {
	rc float64 // current (paced) rate, bits/second
	rt float64 // target rate, bits/second

	cnpSeen    bool // CNP observed since the last α update
	recovering bool // go-back-N issued; ignore NAKs until sndUna advances
	lastCut    sim.Time
	riStage    int // rate-increase stages since the last cut

	paceTimer sim.Event
	rateTimer sim.Event
}

// dctcpG is DCTCP's α gain g (RFC 8257).
const dctcpG = 1.0 / 16.0

// ewma folds the congestion signal f ∈ [0, 1] into α with gain g:
//
//	α ← (1 − g)·α + g·f
//
// DCTCP feeds the window's marked fraction; DCQCN feeds 1 if a CNP arrived
// in the period, else 0 (g·1 = g and x + g·0 = x exactly). α₀ = 1 for both,
// so α stays in [0, 1]. The conversions keep each product rounded on its
// own, so no GOARCH fuses it into a multiply-add.
func ewma(alpha, g, f float64) float64 { return float64((1-g)*alpha) + float64(g*f) }

// newSender builds (but does not start) the sender of FlowTable row i,
// sending its class's packets from host.
func newSender(t *FlowTable, i int, cfg *Config, class uint8, host *device.Host) *Sender {
	if t.Size[i] <= 0 {
		panic(fmt.Sprintf("transport: flow %d has non-positive size %d", t.IDs[i], t.Size[i]))
	}
	s := &Sender{
		eng:    host.Engine(),
		cfg:    cfg,
		host:   host,
		table:  t,
		row:    i,
		flowID: t.IDs[i],
		class:  class,
		dst:    t.Dst[i],
		size:   t.Size[i],
		alpha:  1, // conservative until the first update, as in Linux DCTCP
		rto:    cfg.InitialRTO,
	}
	s.cwnd = float64(cfg.InitCwndSegments * cfg.MSS)
	s.ssthresh = float64(1 << 30) // effectively infinite until first cut
	if dc := cfg.DCQCN; dc != nil {
		s.rate = &rateState{rc: dc.LineRateBps, rt: dc.LineRateBps}
		s.rto = cfg.MinRTO
	}
	return s
}

// Finished reports whether all data was acknowledged.
func (s *Sender) Finished() bool { return s.finished }

// Failed reports whether the flow gave up after exhausting its RTO budget.
func (s *Sender) Failed() bool { return s.failed }

// The start, retransmission-timer, pacing and rate-timer events of every
// sender: the sender is the argument, so scheduling one allocates nothing.
func senderStart(a any)     { a.(*Sender).start() }
func senderRTO(a any)       { a.(*Sender).onRTO() }
func senderPace(a any)      { a.(*Sender).pace() }
func senderRateTimer(a any) { a.(*Sender).onRateTimer() }

// start registers for ACKs and transmits the initial window, or begins
// pacing. It runs at the flow's arrival time.
func (s *Sender) start() {
	if s.started {
		panic("transport: sender started twice")
	}
	s.started = true
	s.startTime = s.eng.Now()
	s.host.Register(s.flowID, s)
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.FlowStart, At: int64(s.eng.Now()),
			Port: -1, Queue: -1, FlowID: uint64(s.flowID), Src: s.host.ID, Dst: s.dst,
			Size: s.size})
	}
	if s.rate != nil {
		s.scheduleRateTimer()
		s.pace()
		return
	}
	s.trySend()
}

// traceControl emits a CwndUpdate event carrying the congestion window,
// or for a rate flow a RateUpdate event carrying the paced rate; it is
// called at every mutation site (ECE cut, growth, fast retransmit,
// recovery exit, RTO collapse; rate cut and increase stage) and costs one
// nil check when tracing is off.
func (s *Sender) traceControl() {
	if tr := s.eng.Tracer(); tr != nil {
		typ, v := trace.CwndUpdate, s.cwnd
		if s.rate != nil {
			typ, v = trace.RateUpdate, s.rate.rc
		}
		tr.Trace(trace.Event{Type: typ, At: int64(s.eng.Now()),
			Port: -1, Queue: -1, FlowID: uint64(s.flowID), Src: s.host.ID, Dst: s.dst,
			Value: v})
	}
}

// HandlePacket implements device.PacketHandler for ACKs.
func (s *Sender) HandlePacket(now sim.Time, p *packet.Packet) {
	if p.Kind != packet.Ack || s.finished || s.failed {
		return
	}
	s.Stats.AcksReceived++
	if s.rate != nil {
		s.onRateAck(now, p)
		return
	}
	s.onAck(now, p)
}

// minCwnd floors the window at one segment.
func (s *Sender) minCwnd() float64 { return float64(s.cfg.MSS) }

func (s *Sender) onAck(now sim.Time, p *packet.Packet) {
	// RTT sample from the echoed timestamp.
	if p.TS > 0 {
		s.rttSample(now - p.TS)
	}

	ack := p.Seq // an ACK's cumulative acknowledgement
	if ack > s.sndNxt {
		ack = s.sndNxt // never ack beyond what was sent
	}

	newlyAcked := ack - s.sndUna

	// Per-window marked-byte accounting feeds the DCTCP α estimator.
	if newlyAcked > 0 {
		s.bytesAcked += newlyAcked
		if p.ECE {
			s.bytesMarked += newlyAcked
		}
	}
	if ack >= s.winEnd {
		if s.bytesAcked > 0 {
			s.endWindow(float64(s.bytesMarked) / float64(s.bytesAcked))
		}
		s.bytesAcked, s.bytesMarked = 0, 0
		s.winEnd = s.sndNxt
	}

	// ECN reaction: one multiplicative decrease per window, by α/2 (α/2
	// is in [0, 1/2]; the floor below keeps at least one segment).
	if ack >= s.cwrEnd {
		s.cwr = false
	}
	if p.ECE && !s.cwr && !s.inRecovery {
		s.cwnd *= 1 - float64(s.alpha/2)
		if s.cwnd < s.minCwnd() {
			s.cwnd = s.minCwnd()
		}
		s.ssthresh = s.cwnd
		s.cwr = true
		s.cwrEnd = s.sndNxt
		s.Stats.ECECuts++
		s.traceControl()
	}

	if newlyAcked > 0 {
		s.sndUna = ack
		s.dupAcks = 0
		s.backoff = 0
		s.consecTO = 0
		if s.inRecovery {
			if ack >= s.recover {
				s.inRecovery = false
				s.cwnd = s.ssthresh
				s.traceControl()
			} else {
				// NewReno partial ACK: the next hole starts at the new
				// sndUna; retransmit it immediately instead of waiting for
				// an RTO.
				s.retransmit(s.sndUna)
			}
		}
		if !s.inRecovery {
			s.grow(newlyAcked)
			s.traceControl()
		}
		if s.sndUna >= s.size {
			s.finish(now)
			return
		}
		s.armRTO()
		s.trySend()
		return
	}

	// Duplicate ACK handling (only meaningful with data outstanding).
	if s.sndUna < s.sndNxt && p.Seq == s.sndUna {
		s.dupAcks++
		if s.dupAcks == 3 && !s.inRecovery {
			s.fastRetransmit()
		}
	}
}

// endWindow folds one window's marked fraction into DCTCP's α.
func (s *Sender) endWindow(frac float64) { s.alpha = ewma(s.alpha, dctcpG, frac) }

// grow applies slow start / congestion avoidance, capped at the maximum
// window (the receive-window stand-in).
func (s *Sender) grow(acked int64) {
	mss := float64(s.cfg.MSS)
	if s.cwnd < s.ssthresh {
		s.cwnd += float64(acked)
		if s.cwnd > s.ssthresh {
			s.cwnd = s.ssthresh
		}
	} else {
		s.cwnd += mss * float64(acked) / s.cwnd
	}
	if max := float64(s.cfg.MaxCwndSegments * s.cfg.MSS); s.cwnd > max {
		s.cwnd = max
	}
}

func (s *Sender) fastRetransmit() {
	s.Stats.FastRecoveries++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2*float64(s.cfg.MSS) {
		s.ssthresh = 2 * float64(s.cfg.MSS)
	}
	s.cwnd = s.ssthresh
	s.inRecovery = true
	s.recover = s.sndNxt
	s.traceControl()
	s.retransmit(s.sndUna)
	s.armRTO()
}

// trySend transmits while the window permits.
func (s *Sender) trySend() {
	for s.sndNxt < s.size && float64(s.sndNxt-s.sndUna) < s.cwnd {
		s.sendSegment(s.sndNxt, false)
		s.sndNxt += int64(s.segLen(s.sndNxt))
	}
	if s.sndUna < s.sndNxt && !s.rtoTimer.Valid() {
		s.armRTO()
	}
}

// segLen returns the payload length of the segment starting at seq.
func (s *Sender) segLen(seq int64) int {
	n := s.size - seq
	if n > int64(s.cfg.MSS) {
		n = int64(s.cfg.MSS)
	}
	return int(n)
}

func (s *Sender) sendSegment(seq int64, isRetransmit bool) {
	p := s.host.AllocPacket()
	p.FlowID = s.flowID
	p.Src = int32(s.host.ID)
	p.Dst = int32(s.dst)
	p.Kind = packet.Data
	p.Seq = seq
	p.PayloadLen = int32(s.segLen(seq))
	p.ECN = packet.ECT
	p.TS = s.eng.Now()
	p.Class = s.class
	s.Stats.SentPackets++
	s.Stats.SentBytes += int64(p.Size())
	if isRetransmit {
		s.Stats.Retransmits++
	}
	s.host.Send(p)
}

func (s *Sender) retransmit(seq int64) { s.sendSegment(seq, true) }

// rttSample updates SRTT/RTTVAR and the RTO per RFC 6298.
func (s *Sender) rttSample(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if !s.hasSample {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasSample = true
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
}

// armRTO (re)schedules the retransmission timer with current backoff. A
// rate flow never samples the RTT nor backs off, so its timer is MinRTO.
func (s *Sender) armRTO() {
	s.cancelRTO()
	d := s.rto << s.backoff
	if d > s.cfg.MaxRTO {
		d = s.cfg.MaxRTO
	}
	s.rtoTimer = s.eng.AfterArg(d, senderRTO, s)
}

func (s *Sender) cancelRTO() {
	if s.rtoTimer.Valid() {
		s.eng.Cancel(s.rtoTimer)
		s.rtoTimer = sim.Event{}
	}
}

// onRTO handles a retransmission timeout: a rate flow goes back N; a
// window flow collapses the window, goes back to the first unacked byte,
// and backs off the timer.
func (s *Sender) onRTO() {
	s.rtoTimer = sim.Event{}
	if s.finished || s.failed || s.sndUna >= s.sndNxt {
		return
	}
	s.Stats.Timeouts++
	s.consecTO++
	if s.cfg.MaxConsecTimeouts > 0 && s.consecTO > s.cfg.MaxConsecTimeouts {
		s.fail(s.eng.Now())
		return
	}
	if s.rate != nil {
		s.goBackN()
		return
	}
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2*float64(s.cfg.MSS) {
		s.ssthresh = 2 * float64(s.cfg.MSS)
	}
	s.cwnd = s.minCwnd()
	s.traceControl()
	s.sndNxt = s.sndUna
	s.dupAcks = 0
	s.inRecovery = false
	s.cwr = false
	if s.backoff < 10 {
		s.backoff++
	}
	s.trySend()
	s.armRTO()
}

// onRateAck is a rate flow's ACK path: ECN-echo is the CNP, and duplicate
// cumulative ACKs play the role of RoCE NAKs.
func (s *Sender) onRateAck(now sim.Time, p *packet.Packet) {
	r := s.rate
	if p.ECE {
		r.cnpSeen = true
		s.cutRate(now)
	}
	ack := p.Seq // an ACK's cumulative acknowledgement
	if ack > s.sndNxt {
		ack = s.sndNxt
	}
	if ack > s.sndUna {
		s.sndUna = ack
		s.dupAcks = 0
		s.consecTO = 0
		r.recovering = false
		if s.sndUna >= s.size {
			s.finish(now)
			return
		}
		s.armRTO()
		return
	}
	// While a go-back-N is already in flight, further duplicates are
	// echoes of the retransmission burst itself and must not re-trigger it.
	if !r.recovering && s.sndUna < s.sndNxt && p.Seq == s.sndUna {
		s.dupAcks++
		if s.dupAcks == 3 {
			s.dupAcks = 0
			s.goBackN()
		}
	}
}

// cutRate applies the DCQCN rate decrease, at most once per CNP interval.
func (s *Sender) cutRate(now sim.Time) {
	r, dc := s.rate, s.cfg.DCQCN
	if r.lastCut != 0 && now < r.lastCut+dc.CNPInterval {
		return
	}
	r.lastCut = now
	s.Stats.ECECuts++
	r.rt = r.rc
	r.rc *= 1 - float64(s.alpha/2)
	if r.rc < dc.MinRateBps {
		r.rc = dc.MinRateBps
	}
	r.riStage = 0
	s.traceControl()
}

// scheduleRateTimer arms the periodic α update and rate increase. The
// period is offset by a per-flow jitter: hardware timers are never
// phase-locked, simulated ones are, and phase-locked AIMD timers produce
// synchronized rate oscillations.
func (s *Sender) scheduleRateTimer() {
	jitter := sim.Time(s.flowID%13) * sim.Microsecond
	s.rate.rateTimer = s.eng.AfterArg(s.cfg.DCQCN.AlphaTimer+jitter, senderRateTimer, s)
}

// onRateTimer moves α toward 1 if a CNP arrived this period, toward 0
// otherwise, and runs one rate-increase stage; a cut resets the stage
// counter, so recovery restarts from fast recovery after each decrease.
func (s *Sender) onRateTimer() {
	r := s.rate
	f := 0.0
	if r.cnpSeen {
		f = 1
	}
	s.alpha = ewma(s.alpha, s.cfg.DCQCN.G, f)
	r.cnpSeen = false
	s.increaseRate()
	s.scheduleRateTimer()
}

// increaseRate runs one rate-increase stage (fast recovery, then
// additive, then hyper).
func (s *Sender) increaseRate() {
	r, dc := s.rate, s.cfg.DCQCN
	r.riStage++
	switch {
	case r.riStage <= dc.FastRecoverySteps:
		// Fast recovery toward the pre-cut target.
	case r.riStage <= 2*dc.FastRecoverySteps:
		r.rt += dc.RaiBps
	default:
		r.rt += float64(5 * dc.RaiBps)
	}
	if r.rt > dc.LineRateBps {
		r.rt = dc.LineRateBps
	}
	r.rc = (r.rt + r.rc) / 2
	if r.rc > dc.LineRateBps {
		r.rc = dc.LineRateBps
	}
	s.traceControl()
}

// pace sends one segment and schedules the next at the current rate.
// Every caller has data left to send: the pace and rate timers stop with
// the flow, and go-back-N rewinds to an unacknowledged byte.
func (s *Sender) pace() {
	n := s.segLen(s.sndNxt)
	s.sendSegment(s.sndNxt, false)
	s.sndNxt += int64(n)
	if !s.rtoTimer.Valid() {
		s.armRTO()
	}
	if s.sndNxt < s.size {
		gap := sim.Time(float64(n+packet.HeaderSize) * 8 / s.rate.rc * float64(sim.Second))
		s.rate.paceTimer = s.eng.AfterArg(gap, senderPace, s)
	}
}

// goBackN rewinds a rate flow's transmission to the first unacknowledged
// byte.
func (s *Sender) goBackN() {
	s.Stats.Retransmits++
	s.rate.recovering = true
	s.eng.Cancel(s.rate.paceTimer)
	s.rate.paceTimer = sim.Event{}
	s.sndNxt = s.sndUna
	s.armRTO()
	s.pace()
}

// stop cancels the sender's timers and deregisters it (late ACKs are
// dropped by the host).
func (s *Sender) stop() {
	if r := s.rate; r != nil {
		s.eng.Cancel(r.paceTimer)
		s.eng.Cancel(r.rateTimer)
	}
	s.cancelRTO()
	s.host.Unregister(s.flowID)
}

// traceEnd emits the flow's FlowFinish or FlowFail event, carrying the
// elapsed time.
func (s *Sender) traceEnd(typ trace.Type, now sim.Time) {
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: typ, At: int64(now),
			Port: -1, Queue: -1, FlowID: uint64(s.flowID), Src: s.host.ID, Dst: s.dst,
			Size: s.size, Dur: int64(now - s.startTime)})
	}
}

// fail gives the flow up: RTO exhaustion means no path to the destination
// survived long enough to move a byte. It records Failed in the flow's
// table row and runs the table's OnFail — never OnDone, so FCT stats only
// ever aggregate completed flows.
func (s *Sender) fail(now sim.Time) {
	s.failed = true
	s.stop()
	s.traceEnd(trace.FlowFail, now)
	t := s.table
	t.Failed[s.row] = true
	if t.OnFail != nil {
		t.OnFail(s.row)
	}
}

// finish records the flow's completion time and Done in its table row
// and runs the table's OnDone.
func (s *Sender) finish(now sim.Time) {
	s.finished = true
	s.stop()
	s.traceEnd(trace.FlowFinish, now)
	t := s.table
	t.FCT[s.row] = now - s.startTime
	t.Done[s.row] = true
	if t.OnDone != nil {
		t.OnDone(s.row)
	}
}
