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
	"math"

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
// acknowledgement in Seq and the ECN-echo flag.
//
// A Packet is 64 bytes, one cache line, and the allocator's 64-byte size
// class starts every object on a line: a packet arriving cold costs a hop
// or an endpoint one miss, whatever field it reads. What keeps it there:
// host and flow ids are 32 bits, the class is a byte, and the fields only
// one kind uses share a word with the other kind's (Seq, TS).
type Packet struct {
	// Next is where the packet lands when the delay it is sitting out ends:
	// the far end of the link it is propagating on, or the NIC behind its
	// flow's extra host delay. The sender of that hop sets it, delivery
	// clears it, and while it is set the packet belongs to the pending
	// event — nobody may release it (Pool.Put panics).
	Next Sink

	// EnqueuedAt is stamped by the switch queue at enqueue time and read at
	// dequeue to compute the sojourn time the AQMs act on.
	EnqueuedAt sim.Time

	// Seq is a data packet's first payload byte, and an ACK's cumulative
	// next-expected byte (TCP's AckSeq).
	Seq int64
	// TS carries, on a data packet, the sender's clock at transmission
	// (TCP's TSVal); the receiver echoes it on the ACK (TSEcr), so the
	// sender measures RTT without per-packet state (RFC 7323).
	TS sim.Time

	FlowID     uint32
	Src, Dst   int32 // source and destination host ids
	PayloadLen int32 // data payload bytes (0 for pure ACKs)

	// Class selects the egress service queue under multi-queue scheduling
	// (DWRR experiment, Figure 13). Class 0 is the default best-effort
	// queue; ClassOf narrows a flow's class to it.
	Class uint8

	Kind Kind
	ECN  ECN  // IP ECN codepoint; AQMs set CE on ECT packets
	ECE  bool // ack: ECN-echo (receiver saw CE)

	// pooled marks packets currently resting in a Pool's free list; Put
	// panics when it sees it set, catching double-release ownership bugs.
	pooled bool
}

// MaxClass is the highest service class a packet carries.
const MaxClass = math.MaxUint8

// ClassOf narrows a flow's service class to a packet's, clamping it the
// way the queue layer clamps a class to its queues: a negative class is
// class 0 and one above MaxClass is MaxClass, which an egress with at most
// MaxClass+1 queues maps to its last queue as it would the original.
func ClassOf(c int) uint8 {
	return uint8(min(max(c, 0), MaxClass))
}

// Size returns the wire size of the packet in bytes.
func (p *Packet) Size() int { return HeaderSize + int(p.PayloadLen) }

// SojournTime returns how long the packet has spent queued as of now.
func (p *Packet) SojournTime(now sim.Time) sim.Time { return now - p.EnqueuedAt }

func (p *Packet) String() string {
	if p.Kind == Data {
		return fmt.Sprintf("DATA flow=%d %d->%d seq=%d len=%d ecn=%v",
			p.FlowID, p.Src, p.Dst, p.Seq, p.PayloadLen, p.ECN)
	}
	return fmt.Sprintf("ACK flow=%d %d->%d ack=%d ece=%v",
		p.FlowID, p.Src, p.Dst, p.Seq, p.ECE)
}
