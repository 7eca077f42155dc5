// Package packet defines the packet model shared by links, switches,
// queues, AQMs and transports.
//
// A Packet is deliberately a plain struct: simulations allocate millions of
// them, so everything an element needs (ECN codepoints, timestamps for
// sojourn-time computation, service class for scheduling) is a concrete
// field rather than a tag map. The ns-3 implementation the paper uses
// attaches an enqueue-timestamp tag to compute sojourn time (§5.3); here
// that is the EnqueuedAt field, stamped by the queue layer.
package packet

import (
	"fmt"

	"ecnsharp/internal/sim"
)

// ECN is the two-bit ECN codepoint in the IP header.
type ECN uint8

// ECN codepoints (RFC 3168).
const (
	NotECT ECN = iota // transport is not ECN-capable
	ECT               // ECN-capable transport
	CE                // congestion experienced (set by AQM marking)
)

func (e ECN) String() string {
	switch e {
	case NotECT:
		return "NotECT"
	case ECT:
		return "ECT"
	case CE:
		return "CE"
	default:
		return fmt.Sprintf("ECN(%d)", uint8(e))
	}
}

// Kind discriminates data segments from acknowledgements.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Ack
)

func (k Kind) String() string {
	if k == Data {
		return "DATA"
	}
	return "ACK"
}

// Standard datacenter framing constants. The paper reasons in 1.5 KB
// packets on 10 Gbps links (§2.2).
const (
	MSS        = 1460 // maximum segment payload in bytes
	HeaderSize = 40   // IP + TCP header bytes on every packet
	MTU        = MSS + HeaderSize
)

// Sink is whatever a packet in transit is delivered to next: a switch, a
// host, a test tap (every device.Node is one).
type Sink interface {
	// Receive takes ownership of p at its arrival time.
	Receive(p *Packet)
}

// Packet is one simulated packet. Data packets carry [Seq, Seq+PayloadLen)
// of the flow's byte stream; ACK packets carry the receiver's cumulative
// AckSeq and the ECN-echo flag.
type Packet struct {
	// The first 64 bytes hold everything a forwarding hop reads or writes,
	// so that a packet arriving cold costs a switch one cache line, not
	// two; what only the endpoints use follows.

	FlowID     uint64
	Dst        int // destination host id
	PayloadLen int // data payload bytes (0 for pure ACKs)

	// Class selects the egress service queue under multi-queue scheduling
	// (DWRR experiment, Figure 13). Class 0 is the default best-effort queue.
	Class int

	// EnqueuedAt is stamped by the switch queue at enqueue time and read at
	// dequeue to compute the sojourn time the AQMs act on.
	EnqueuedAt sim.Time

	// Next is where the packet lands when the delay it is sitting out ends:
	// the far end of the link it is propagating on, or the NIC behind its
	// flow's extra host delay. The sender of that hop sets it, delivery
	// clears it, and while it is set the packet belongs to the pending
	// event — nobody may release it (Pool.Put panics).
	Next Sink

	Kind Kind
	ECN  ECN  // IP ECN codepoint; AQMs set CE on ECT packets
	ECE  bool // ack: ECN-echo (receiver saw CE)

	// pooled marks packets currently resting in a Pool's free list; Put
	// panics when it sees it set, catching double-release ownership bugs.
	pooled bool

	Src    int   // source host id
	Seq    int64 // data: first payload byte; ack: unused
	AckSeq int64 // ack: cumulative next-expected byte

	// TSVal carries the sender's clock at transmission; the receiver echoes
	// it in TSEcr so the sender measures RTT without per-packet state
	// (TCP timestamps, RFC 7323).
	TSVal sim.Time
	TSEcr sim.Time

	// The pad keeps a Packet in the allocator's 128-byte size class, whose
	// objects start on a cache line (the 112-byte class's do not).
	_ [16]byte
}

// Size returns the wire size of the packet in bytes.
func (p *Packet) Size() int { return HeaderSize + p.PayloadLen }

// SojournTime returns how long the packet has spent queued as of now.
func (p *Packet) SojournTime(now sim.Time) sim.Time { return now - p.EnqueuedAt }

func (p *Packet) String() string {
	if p.Kind == Data {
		return fmt.Sprintf("DATA flow=%d %d->%d seq=%d len=%d ecn=%v",
			p.FlowID, p.Src, p.Dst, p.Seq, p.PayloadLen, p.ECN)
	}
	return fmt.Sprintf("ACK flow=%d %d->%d ack=%d ece=%v",
		p.FlowID, p.Src, p.Dst, p.AckSeq, p.ECE)
}
