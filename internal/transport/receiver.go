package transport

import (
	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// Receiver is the sink endpoint of one flow: it reassembles the byte
// stream, generates cumulative ACKs (optionally delayed), and echoes
// congestion marks back to the sender.
//
// ECN echo follows DCTCP's rule set: with per-packet ACKs the ECE bit on
// each ACK is exactly the CE state of the data packet it acknowledges;
// with delayed ACKs the receiver sends an immediate ACK whenever the CE
// state changes, so the sender's marked-byte accounting stays accurate
// (RFC 8257 §3.2).
type Receiver struct {
	eng *sim.Engine
	// cfg is the configuration the flows of a table share; the flow's own
	// service class is class.
	cfg  *Config
	host *device.Host

	flowID uint32
	class  uint8
	src    int

	rcvNxt int64
	// ooo buffers out-of-order segments: first byte -> payload length. It
	// is nil until the first segment arrives out of order.
	ooo map[int64]int

	// Delayed-ACK state.
	pendingAcks int
	pendingTS   sim.Time
	lastCE      bool
	haveCE      bool
	ackTimer    sim.Event

	// Stats.
	DataPackets  int64
	DataBytes    int64
	DupPackets   int64
	OutOfOrder   int64
	AcksSent     int64
	CEMarksSeen  int64
	BytesInOrder int64
}

// newReceiver is NewReceiver on a shared, validated cfg, with the flow's
// class given apart.
func newReceiver(eng *sim.Engine, cfg *Config, class uint8, host *device.Host, flowID uint32, src int) *Receiver {
	r := &Receiver{
		eng:    eng,
		cfg:    cfg,
		host:   host,
		flowID: flowID,
		class:  class,
		src:    src,
	}
	host.Register(flowID, r)
	return r
}

// receiverAckTimer is the delayed-ACK timer event of every receiver; the
// receiver is the argument, so arming the timer allocates nothing.
func receiverAckTimer(a any) {
	r := a.(*Receiver)
	r.ackTimer = sim.Event{}
	if r.pendingAcks > 0 {
		r.sendAck(r.eng.Now(), r.pendingTS, r.lastCE)
	}
}

// Close unregisters the receiver and cancels any pending delayed ACK.
func (r *Receiver) Close() {
	r.host.Unregister(r.flowID)
	if r.ackTimer.Valid() {
		r.eng.Cancel(r.ackTimer)
		r.ackTimer = sim.Event{}
	}
}

// HandlePacket implements device.PacketHandler for data segments.
func (r *Receiver) HandlePacket(now sim.Time, p *packet.Packet) {
	if p.Kind != packet.Data {
		return
	}
	r.DataPackets++
	r.DataBytes += int64(p.PayloadLen)
	ce := p.ECN == packet.CE
	if ce {
		r.CEMarksSeen++
		if tr := r.eng.Tracer(); tr != nil {
			// The event keeps the flow's orientation: Src is the flow's
			// sender, Dst this receiving host.
			tr.Trace(trace.Event{Type: trace.ECNEcho, At: int64(now),
				Port: -1, Queue: -1, FlowID: uint64(r.flowID), Src: r.src, Dst: r.host.ID,
				Seq: p.Seq, Size: int64(p.Size())})
		}
	}

	// DCTCP CE-change rule (RFC 8257 §3.2): flush any pending delayed ACK
	// with the *old* CE state before this packet's bytes are folded into
	// rcvNxt, so the sender attributes exactly the right byte ranges to
	// marked and unmarked windows.
	if r.cfg.DelayedAckCount > 1 && r.haveCE && ce != r.lastCE && r.pendingAcks > 0 {
		r.sendAck(now, r.pendingTS, r.lastCE)
	}

	switch {
	case p.Seq == r.rcvNxt:
		r.rcvNxt += int64(p.PayloadLen)
		r.BytesInOrder += int64(p.PayloadLen)
		r.drainOOO()
		r.ackData(now, p, ce, false)
	case p.Seq > r.rcvNxt:
		r.OutOfOrder++
		if _, dup := r.ooo[p.Seq]; !dup {
			if r.ooo == nil {
				r.ooo = make(map[int64]int)
			}
			r.ooo[p.Seq] = int(p.PayloadLen)
		}
		// Out-of-order data triggers an immediate duplicate ACK so the
		// sender's fast-retransmit can fire.
		r.ackData(now, p, ce, true)
	default:
		// Fully old segment (spurious retransmission): ACK immediately to
		// resynchronize the sender.
		r.DupPackets++
		r.ackData(now, p, ce, true)
	}
}

// drainOOO advances rcvNxt across any buffered contiguous segments.
func (r *Receiver) drainOOO() {
	for {
		n, ok := r.ooo[r.rcvNxt]
		if !ok {
			return
		}
		delete(r.ooo, r.rcvNxt)
		r.rcvNxt += int64(n)
		r.BytesInOrder += int64(n)
	}
}

// ackData runs the (delayed-)ACK state machine for a data arrival.
func (r *Receiver) ackData(now sim.Time, p *packet.Packet, ce, immediate bool) {
	if r.cfg.DelayedAckCount <= 1 {
		r.sendAck(now, p.TS, ce)
		return
	}
	r.lastCE = ce
	r.haveCE = true
	r.pendingAcks++
	r.pendingTS = p.TS
	if immediate || r.pendingAcks >= r.cfg.DelayedAckCount {
		r.sendAck(now, r.pendingTS, r.lastCE)
		return
	}
	if !r.ackTimer.Valid() {
		r.ackTimer = r.eng.AfterArg(r.cfg.DelayedAckTimeout, receiverAckTimer, r)
	}
}

// sendAck emits a cumulative ACK with the ECN echo bit.
func (r *Receiver) sendAck(_ sim.Time, tsEcr sim.Time, ece bool) {
	r.pendingAcks = 0
	if r.ackTimer.Valid() {
		r.eng.Cancel(r.ackTimer)
		r.ackTimer = sim.Event{}
	}
	ack := r.host.AllocPacket()
	ack.FlowID = r.flowID
	ack.Src = int32(r.host.ID)
	ack.Dst = int32(r.src)
	ack.Kind = packet.Ack
	ack.Seq = r.rcvNxt
	ack.ECE = ece
	ack.ECN = packet.NotECT
	ack.TS = tsEcr
	ack.Class = r.class
	r.AcksSent++
	r.host.Send(ack)
}
