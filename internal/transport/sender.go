package transport

import (
	"fmt"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// Sender is the transmitting endpoint of one flow. It implements
// window-based reliable delivery with slow start, congestion avoidance,
// fast retransmit on three duplicate ACKs, retransmission timeouts with
// exponential backoff, and ECN reaction delegated to an ECNControl.
type Sender struct {
	eng  *sim.Engine
	cfg  Config
	host *device.Host
	cc   ECNControl

	flowID uint64
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
	onFail   func()

	onDone func(fct sim.Time)

	// Stats is the sender's observability surface.
	Stats SenderStats
}

// SenderStats counts transport events for metrics and tests.
type SenderStats struct {
	SentPackets    int64
	SentBytes      int64
	Retransmits    int64
	Timeouts       int64
	FastRecoveries int64
	ECECuts        int64
	AcksReceived   int64
}

// NewSender builds (but does not start) a sender for flowID moving size
// bytes from host to dst. onDone receives the flow completion time.
func NewSender(eng *sim.Engine, cfg Config, host *device.Host, flowID uint64,
	dst int, size int64, onDone func(fct sim.Time)) *Sender {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if size <= 0 {
		panic(fmt.Sprintf("transport: flow %d has non-positive size %d", flowID, size))
	}
	s := &Sender{
		eng:    eng,
		cfg:    cfg,
		host:   host,
		cc:     cfg.NewControl(),
		flowID: flowID,
		dst:    dst,
		size:   size,
		onDone: onDone,
		rto:    cfg.InitialRTO,
	}
	s.cwnd = float64(cfg.InitCwndSegments * cfg.MSS)
	s.ssthresh = float64(1 << 30) // effectively infinite until first cut
	return s
}

// Control exposes the flow's ECN responder (for tests).
func (s *Sender) Control() ECNControl { return s.cc }

// Engine returns the engine the sender runs on (its source host's domain).
func (s *Sender) Engine() *sim.Engine { return s.eng }

// Cwnd returns the congestion window in bytes (for tests and tracing).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Finished reports whether all data was acknowledged.
func (s *Sender) Finished() bool { return s.finished }

// Failed reports whether the flow gave up after exhausting its RTO budget.
func (s *Sender) Failed() bool { return s.failed }

// SetOnFail registers a callback invoked once if the flow fails by RTO
// exhaustion. It must be set before Start.
func (s *Sender) SetOnFail(fn func()) { s.onFail = fn }

// RTO returns the current retransmission timeout (before backoff), which
// rttSample clamps to [MinRTO, MaxRTO] — the property test's invariant.
func (s *Sender) RTO() sim.Time { return s.rto }

// Backoff returns the current exponential-backoff exponent.
func (s *Sender) Backoff() uint { return s.backoff }

// senderStart is the start event of a flow; the sender is the argument.
func senderStart(a any) { a.(*Sender).Start() }

// Start registers for ACKs and transmits the initial window. It must be
// called at the flow's arrival time.
func (s *Sender) Start() {
	if s.started {
		panic("transport: sender started twice")
	}
	s.started = true
	s.startTime = s.eng.Now()
	s.winEnd = 0
	s.host.Register(s.flowID, s)
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.FlowStart, At: int64(s.eng.Now()),
			Port: -1, Queue: -1, FlowID: s.flowID, Src: s.host.ID, Dst: s.dst,
			Size: s.size})
	}
	s.trySend()
}

// traceCwnd emits a CwndUpdate event; it is called at every congestion-
// window mutation site (ECE cut, growth, fast retransmit, recovery exit,
// RTO collapse) and costs one nil check when tracing is off.
func (s *Sender) traceCwnd() {
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.CwndUpdate, At: int64(s.eng.Now()),
			Port: -1, Queue: -1, FlowID: s.flowID, Src: s.host.ID, Dst: s.dst,
			Value: s.cwnd})
	}
}

// HandlePacket implements device.PacketHandler for ACKs.
func (s *Sender) HandlePacket(now sim.Time, p *packet.Packet) {
	if p.Kind != packet.Ack || s.finished || s.failed {
		return
	}
	s.Stats.AcksReceived++
	s.onAck(now, p)
}

// minCwnd floors the window at one segment.
func (s *Sender) minCwnd() float64 { return float64(s.cfg.MSS) }

func (s *Sender) onAck(now sim.Time, p *packet.Packet) {
	// RTT sample from the echoed timestamp.
	if p.TSEcr > 0 {
		s.rttSample(now - p.TSEcr)
	}

	ack := p.AckSeq
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
			s.cc.OnWindowEnd(float64(s.bytesMarked) / float64(s.bytesAcked))
		}
		s.bytesAcked, s.bytesMarked = 0, 0
		s.winEnd = s.sndNxt
	}

	// ECN reaction: one multiplicative decrease per window.
	if ack >= s.cwrEnd {
		s.cwr = false
	}
	if p.ECE && !s.cwr && !s.inRecovery {
		cut := s.cc.CutFraction()
		s.cwnd *= 1 - cut
		if s.cwnd < s.minCwnd() {
			s.cwnd = s.minCwnd()
		}
		s.ssthresh = s.cwnd
		s.cwr = true
		s.cwrEnd = s.sndNxt
		s.Stats.ECECuts++
		s.traceCwnd()
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
				s.traceCwnd()
			} else {
				// NewReno partial ACK: the next hole starts at the new
				// sndUna; retransmit it immediately instead of waiting for
				// an RTO.
				s.retransmit(s.sndUna)
			}
		}
		if !s.inRecovery {
			s.grow(newlyAcked)
			s.traceCwnd()
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
	if s.sndUna < s.sndNxt && p.AckSeq == s.sndUna {
		s.dupAcks++
		if s.dupAcks == 3 && !s.inRecovery {
			s.fastRetransmit()
		}
	}
}

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
	s.traceCwnd()
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
	p.Src = s.host.ID
	p.Dst = s.dst
	p.Kind = packet.Data
	p.Seq = seq
	p.PayloadLen = s.segLen(seq)
	p.ECN = packet.ECT
	p.TSVal = s.eng.Now()
	p.Class = s.cfg.Class
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

// armRTO (re)schedules the retransmission timer with current backoff.
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

// senderRTO is the retransmission-timer event of every sender; the sender
// is the argument, so re-arming the timer allocates nothing.
func senderRTO(a any) { a.(*Sender).onRTO() }

// onRTO handles a retransmission timeout: collapse the window, go back to
// the first unacked byte, and back off the timer.
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
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2*float64(s.cfg.MSS) {
		s.ssthresh = 2 * float64(s.cfg.MSS)
	}
	s.cwnd = s.minCwnd()
	s.traceCwnd()
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

// fail gives the flow up: RTO exhaustion means no path to the destination
// survived long enough to move a byte. The sender deregisters (late ACKs
// are dropped by the host), traces a FlowFail event carrying the elapsed
// time, and invokes the failure callback — never onDone, so FCT stats
// only ever aggregate completed flows.
func (s *Sender) fail(now sim.Time) {
	s.failed = true
	s.cancelRTO()
	s.host.Unregister(s.flowID)
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.FlowFail, At: int64(now),
			Port: -1, Queue: -1, FlowID: s.flowID, Src: s.host.ID, Dst: s.dst,
			Size: s.size, Dur: int64(now - s.startTime)})
	}
	if s.onFail != nil {
		s.onFail()
	}
}

func (s *Sender) finish(now sim.Time) {
	s.finished = true
	s.cancelRTO()
	s.host.Unregister(s.flowID)
	if tr := s.eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.FlowFinish, At: int64(now),
			Port: -1, Queue: -1, FlowID: s.flowID, Src: s.host.ID, Dst: s.dst,
			Size: s.size, Dur: int64(now - s.startTime)})
	}
	if s.onDone != nil {
		s.onDone(now - s.startTime)
	}
}
