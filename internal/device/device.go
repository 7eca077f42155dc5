// Package device models the network elements: transmission ports (an
// egress buffer drained at link rate onto a propagation-delay link),
// output-queued switches with ECMP forwarding, and hosts that originate
// and sink traffic.
//
// Topology wiring lives in internal/topology; transports attach to hosts
// via the PacketHandler registration API.
package device

import (
	"fmt"
	"math"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
)

// Node receives packets delivered by a Port after link propagation.
type Node interface {
	// Receive is invoked at packet arrival time.
	Receive(p *packet.Packet)
	// Name identifies the node in diagnostics.
	Name() string
}

// Port is one transmit interface: an egress buffer, held by value, drained
// at RateBps onto a link with propagation delay PropDelay, delivering to
// Dst.
//
// The port serializes one packet at a time: a packet of size S occupies the
// transmitter for S*8/RateBps, then arrives at Dst PropDelay later.
//
// The forwarding path is allocation-free and stores no callback: tx-done
// is the package-level portTxDone scheduled with the port as its argument,
// the packet on the transmitter rides in a struct field, and a packet
// crossing the link names its own next hop (packet.Next) and rides as the
// argument of the package-level Deliver — on the local engine or through a
// handoff alike.
type Port struct {
	eng       *sim.Engine
	Egress    queue.Egress
	RateBps   float64
	PropDelay sim.Time
	// Dst is the Node at the far end of the link, held as the Sink every
	// transmitted packet is addressed to (packet.Next) so that addressing
	// one converts nothing.
	Dst packet.Sink

	txPkt *packet.Packet // packet occupying the transmitter; nil when idle
	txEv  sim.Event      // in-flight serialization event (cancelled on link-down)

	// cut, when non-nil, marks this port as a domain boundary under a
	// sharded engine: instead of scheduling delivery on the local engine,
	// finished packets are handed to the destination domain (see SetRemote).
	cut *Cut

	// Fault state: down discards traffic at the transmitter (SetDown).
	down bool
}

// Cut is the cross-domain side of a boundary port (see SetRemote): the
// handoff that carries the port's packets into the destination domain, and
// the count the conservation audit needs of each cut link. A port counts
// nothing else of its own — its egress counts drops, marks and fault
// losses into the Tally its domain shares — so ordinary ports carry no Cut.
type Cut struct {
	h *sim.Handoff
	// TxBytes counts the bytes that finished serializing out of the domain.
	TxBytes int64
}

// NewPort builds a transmit port over one unbounded, unmarked FIFO queue
// with settings of its own; pt.Egress.Init rebuilds the egress otherwise.
func NewPort(eng *sim.Engine, rateBps float64, prop sim.Time, dst Node) *Port {
	pt := new(Port)
	pt.Init(eng, rateBps, prop, dst)
	pt.Egress.Init(nil, nil, &queue.Settings{Tally: new(queue.Tally)})
	return pt
}

// Init builds the port in place around its Egress, which it leaves as it
// is: topology wiring lays Ports out in blocks and Inits each port and its
// egress there. Events the port schedules carry its address, so it must
// not be copied or moved afterwards.
func (pt *Port) Init(eng *sim.Engine, rateBps float64, prop sim.Time, dst Node) {
	if rateBps <= 0 {
		panic("device: port rate must be positive")
	}
	*pt = Port{eng: eng, Egress: pt.Egress, RateBps: rateBps, PropDelay: prop, Dst: dst}
}

// TxTime returns the serialization delay of n bytes at this port's rate.
func (pt *Port) TxTime(n int) sim.Time {
	return sim.Time(float64(n) * 8 / pt.RateBps * float64(sim.Second))
}

// Send enqueues p for transmission (possibly dropping on buffer overflow)
// and kicks the transmitter. A dropped packet is recycled by the egress;
// the caller relinquishes ownership either way. Sending on a downed link
// loses the packet (counted in the egress tally's FaultDrops).
func (pt *Port) Send(p *packet.Packet) {
	if pt.down {
		pt.faultDrop(p)
		return
	}
	if pt.Egress.Enqueue(pt.eng.Now(), p) {
		pt.kick()
	}
}

// faultDrop counts p as lost to the port's fault logic and releases it.
func (pt *Port) faultDrop(p *packet.Packet) {
	s := pt.Egress.Settings()
	s.Tally.FaultDrops++
	s.Tally.FaultDropBytes += int64(p.Size())
	s.PacketPool.Put(p)
}

// Held returns the packets and bytes the port holds: its queued backlog
// plus the packet on its transmitter.
func (pt *Port) Held() (pkts, bytes int64) {
	pkts, bytes = int64(pt.Egress.Len()), pt.Egress.Bytes()
	if p := pt.txPkt; p != nil {
		pkts++
		bytes += int64(p.Size())
	}
	return pkts, bytes
}

// kick starts transmitting if the port is idle and has queued packets.
func (pt *Port) kick() {
	if pt.txPkt != nil || pt.Egress.Empty() {
		return
	}
	p := pt.Egress.Dequeue(pt.eng.Now())
	if p == nil {
		return
	}
	pt.txPkt = p
	// Transmitter frees after serialization; the packet lands at the
	// destination one propagation delay later (see txDone). The event
	// handle is kept so a link-down can cancel the in-flight transmission.
	pt.txEv = pt.eng.AfterArg(pt.TxTime(p.Size()), portTxDone, pt)
}

// SetDown transitions the port's link state. Taking the link down is
// lossy: the packet on the transmitter is discarded (its serialization
// event cancelled), the egress buffer is drained as drops, and packets
// arriving while down are lost on the spot. Packets that already finished
// serializing keep propagating and deliver — they were on the wire. Under
// a sharded engine this extends to handed-off packets: a boundary message
// buffered before the transition still drains at the next barrier, which
// models the same physics. Bringing the link back up restarts service
// from an empty buffer.
func (pt *Port) SetDown(down bool) {
	if pt.down == down {
		return
	}
	pt.down = down
	if !down {
		pt.kick()
		return
	}
	if p := pt.txPkt; p != nil {
		pt.eng.Cancel(pt.txEv)
		pt.txEv = sim.Event{}
		pt.txPkt = nil
		pt.faultDrop(p)
	}
	pt.Egress.DropAll(pt.eng.Now())
}

// Degrade re-parameterizes the link mid-run: a positive rate and/or
// propagation delay replaces the current value (zero keeps it). A packet
// already serializing keeps its old timing; subsequent packets use the
// new parameters. Callers degrading a cross-domain boundary link must not
// lower the propagation delay below the sharded lookahead (the fault
// injector validates this at install time).
func (pt *Port) Degrade(rateBps float64, prop sim.Time) {
	if rateBps > 0 {
		pt.RateBps = rateBps
	}
	if prop > 0 {
		pt.PropDelay = prop
	}
}

// IsBoundary reports whether the port transmits through a cross-domain
// handoff (a cut link of a sharded build).
func (pt *Port) IsBoundary() bool { return pt.cut != nil }

// SetRemote marks the port as a cross-domain boundary of a sharded
// engine: packets finishing serialization are buffered on h and injected
// into the destination domain at the next synchronization barrier, rather
// than scheduled on the local engine, and counted in c, which the port
// keeps from now on. The handoff's deliver callback must be Deliver.
// Topology wiring calls this once per boundary port, before the run starts.
func (pt *Port) SetRemote(c *Cut, h *sim.Handoff) {
	c.h = h
	pt.cut = c
}

// portTxDone is the tx-done event of every port; the port is the argument.
func portTxDone(a any) { a.(*Port).txDone() }

// txDone fires when the packet on the transmitter finishes serializing: the
// packet leaves for Dst, one propagation delay away, and the transmitter
// takes the next one.
func (pt *Port) txDone() {
	p := pt.txPkt
	pt.txPkt = nil
	pt.txEv = sim.Event{}
	p.Next = pt.Dst
	if c := pt.cut; c != nil {
		c.TxBytes += int64(p.Size())
		c.h.Send(pt.eng.Now()+pt.PropDelay, p)
	} else {
		pt.eng.AfterArg(pt.PropDelay, Deliver, p)
	}
	pt.kick()
}

// Deliver is the arrival event of every packet that was sitting out a
// delay — link propagation on the local engine, the same across a domain
// boundary (pass it to sim.ShardedEngine.NewHandoff), a flow's extra host
// delay: it hands the packet, the event's argument, to the next hop the
// packet names and clears the name.
func Deliver(a any) {
	p := a.(*packet.Packet)
	next := p.Next
	p.Next = nil
	next.Receive(p)
}

// Router computes the equal-cost egress port set for a destination host.
// It exists for fabrics whose forwarding is structured (leaf-spine): a
// per-destination FIB map costs O(hosts) entries per switch — gigabytes at
// 100k hosts — while a structured router answers from the topology's
// arithmetic with a handful of shared slices. The returned slice must be
// stable between routing epochs (it only ever changes when a fault-driven
// reroute re-resolves the ECMP sets; healthy runs never change it) and is
// indexed by the same ECMP flow hash as FIB entries, so a structured
// router reproduces FIB forwarding byte-for-byte when its port order
// matches AddRoute order. An empty set means no surviving path: the
// switch blackholes the packet (or panics, if fault injection never
// enabled blackholing — then it is a wiring bug).
type Router interface {
	// Route returns the equal-cost port set toward host dst; the slice
	// must not be mutated by the caller.
	Route(dst int) []*Port
}

// Switch is an output-queued switch: packets arriving on any ingress are
// immediately placed on the egress port chosen by the forwarding table.
// Equal-cost entries are balanced per-flow by hashing the flow id (ECMP).
type Switch struct {
	id  string
	eng *sim.Engine
	// fib maps destination host id to the set of equal-cost egress ports.
	fib map[int][]*Port
	// router, when non-nil, replaces the fib (see Router).
	router Router
	// Fault state: failed blackholes everything; blackholeOK turns the
	// no-route panic (a wiring bug on healthy fabrics) into a drop (the
	// expected outcome when every equal-cost path is dead).
	failed        bool
	blackholeOK   bool
	blackholePool *packet.Pool
	// RxPackets counts packets received for forwarding.
	RxPackets int64
	// Blackholed and BlackholedBytes count packets discarded because the
	// switch had failed or no surviving route existed (only once
	// EnableBlackhole was called).
	Blackholed      int64
	BlackholedBytes int64
}

// NewSwitch builds an empty switch.
func NewSwitch(eng *sim.Engine, id string) *Switch {
	return &Switch{id: id, eng: eng, fib: make(map[int][]*Port)}
}

// Name implements Node.
func (s *Switch) Name() string { return s.id }

// AddRoute appends an equal-cost egress port for destination host dst.
func (s *Switch) AddRoute(dst int, p *Port) {
	s.fib[dst] = append(s.fib[dst], p)
}

// SetRouter installs a structured forwarding function, replacing the FIB
// map (which may then stay empty). Large fabrics use it to keep per-switch
// forwarding state O(ports) instead of O(hosts).
func (s *Switch) SetRouter(r Router) { s.router = r }

// EnableBlackhole switches no-route handling from panic (a wiring bug on
// a healthy fabric) to silent drop (the expected fate of packets whose
// every equal-cost path died). pool receives the dropped packets; nil
// leaves them to the garbage collector. Fault injection enables this on
// every switch before the run.
func (s *Switch) EnableBlackhole(pool *packet.Pool) {
	s.blackholeOK = true
	s.blackholePool = pool
}

// SetFailed marks the switch dead (blackholing every received packet) or
// alive again. Requires EnableBlackhole to have been called.
func (s *Switch) SetFailed(failed bool) {
	if failed && !s.blackholeOK {
		panic(fmt.Sprintf("device: switch %s failed without EnableBlackhole", s.id))
	}
	s.failed = failed
}

// Routes returns the ECMP port set for dst (for tests).
func (s *Switch) Routes(dst int) []*Port {
	if s.router != nil {
		return s.router.Route(dst)
	}
	return s.fib[dst]
}

// Receive implements Node: forward per FIB (or structured router) with
// per-flow ECMP.
func (s *Switch) Receive(p *packet.Packet) {
	s.RxPackets++
	if s.failed {
		s.blackhole(p)
		return
	}
	var ports []*Port
	if s.router != nil {
		ports = s.router.Route(int(p.Dst))
	} else {
		ports = s.fib[int(p.Dst)]
	}
	if len(ports) == 0 {
		if s.blackholeOK {
			s.blackhole(p)
			return
		}
		panic(fmt.Sprintf("device: switch %s has no route to host %d", s.id, p.Dst))
	}
	var pt *Port
	if len(ports) == 1 {
		pt = ports[0]
	} else {
		pt = ports[ecmpHash(uint64(p.FlowID))%uint64(len(ports))]
	}
	pt.Send(p)
}

// blackhole counts p as discarded by the switch and releases it.
func (s *Switch) blackhole(p *packet.Packet) {
	s.Blackholed++
	s.BlackholedBytes += int64(p.Size())
	s.blackholePool.Put(p)
}

// ecmpHash mixes the flow id (splitmix64 finalizer) so that consecutive
// flow ids spread across equal-cost paths.
func ecmpHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PacketHandler consumes packets addressed to a flow endpoint on a host.
type PacketHandler interface {
	HandlePacket(now sim.Time, p *packet.Packet)
}

// Host originates and sinks traffic. Outgoing packets pass through an
// optional per-flow extra delay (the netem-style RTT-variation injection
// of §2.3) before entering the NIC queue; incoming packets are demuxed to
// the transport endpoint registered for their flow id.
type Host struct {
	ID  int
	eng *sim.Engine
	// NIC is the host's uplink transmit port; set by topology wiring.
	NIC *Port

	// Pool, when non-nil, recycles packets: transports allocate outgoing
	// packets via AllocPacket and the host, as the terminal owner of every
	// delivered packet, returns them after the flow handler has consumed
	// their fields. Handlers must not retain packet pointers past return.
	Pool *packet.Pool

	// flowDelays is nil until the first SetFlowDelay.
	flowDelays map[uint32]sim.Time

	// Tally receives what the host sends and receives. In a topology every
	// host of a domain counts into one.
	Tally *HostTally
	// Demux holds the host's flow handlers, keyed by (host, flow). In a
	// topology every host of a domain registers in one.
	Demux *Demux

	// Default extra delay applied to flows with no specific entry.
	DefaultDelay sim.Time
}

// HostTally counts what a set of hosts received (RxPackets, RxBytes) and
// sent (TxPackets, TxBytes).
type HostTally struct {
	RxPackets, RxBytes int64
	TxPackets, TxBytes int64
}

// NewHost builds a host with the given id, counting into a HostTally and
// registering flows in a Demux of its own.
func NewHost(eng *sim.Engine, id int) *Host {
	h := new(Host)
	h.Init(eng, id, new(HostTally), new(Demux))
	return h
}

// Init builds the host in place, with NewHost's arguments, counting into t
// and registering flows in d. A host id must be below 2^31, to fit a
// demux key. Events the host schedules carry its address, so it must not
// be copied or moved afterwards.
func (h *Host) Init(eng *sim.Engine, id int, t *HostTally, d *Demux) {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("device: host id %d outside [0, 2^31)", id))
	}
	*h = Host{ID: id, eng: eng, Tally: t, Demux: d}
}

// AllocPacket returns a zeroed packet from the host's pool (or the heap
// when pooling is disabled). Transports use it for every outgoing packet.
func (h *Host) AllocPacket() *packet.Packet { return h.Pool.Get() }

// Name implements Node.
func (h *Host) Name() string { return fmt.Sprintf("host%d", h.ID) }

// Engine returns the simulation engine the host runs on.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Register attaches a handler for packets of the given flow arriving at
// this host. Registering twice for one flow panics: it indicates colliding
// flow ids.
func (h *Host) Register(flowID uint32, ph PacketHandler) {
	if h.handler(flowID) != nil {
		panic(fmt.Sprintf("device: host %d: duplicate handler for flow %d", h.ID, flowID))
	}
	if ph == nil {
		panic(fmt.Sprintf("device: host %d: nil handler for flow %d", h.ID, flowID))
	}
	h.Demux.insert(demuxKey(h.ID, flowID), ph)
}

// Unregister removes the flow handler (after flow completion). A handler
// may unregister itself, or another flow, from inside HandlePacket.
func (h *Host) Unregister(flowID uint32) { h.Demux.remove(demuxKey(h.ID, flowID)) }

// handler returns the handler registered for flowID, or nil.
func (h *Host) handler(flowID uint32) PacketHandler {
	return h.Demux.lookup(demuxKey(h.ID, flowID))
}

// SetFlowDelay sets the netem-style extra one-way delay this host adds to
// every packet it sends for the given flow. The experiments use it to give
// each flow its base-RTT contribution from processing components.
func (h *Host) SetFlowDelay(flowID uint32, d sim.Time) {
	if d < 0 {
		panic("device: negative flow delay")
	}
	if h.flowDelays == nil {
		h.flowDelays = make(map[uint32]sim.Time)
	}
	h.flowDelays[flowID] = d
}

// FlowDelay returns the extra delay configured for a flow.
func (h *Host) FlowDelay(flowID uint32) sim.Time {
	if d, ok := h.flowDelays[flowID]; ok {
		return d
	}
	return h.DefaultDelay
}

// Send emits p from this host: after the flow's extra processing delay the
// packet enters the NIC queue.
func (h *Host) Send(p *packet.Packet) {
	if h.NIC == nil {
		panic(fmt.Sprintf("device: host %d has no NIC", h.ID))
	}
	h.Tally.TxPackets++
	h.Tally.TxBytes += int64(p.Size())
	d := h.FlowDelay(p.FlowID)
	if d == 0 {
		h.NIC.Send(p)
		return
	}
	p.Next = (*nicEntry)(h)
	h.eng.AfterArg(d, Deliver, p)
}

// nicEntry is the host as the next hop of a packet sitting out its flow's
// extra delay in Send: receiving it puts it on the NIC.
type nicEntry Host

// Receive implements packet.Sink.
func (n *nicEntry) Receive(p *packet.Packet) { n.NIC.Send(p) }

// Receive implements Node: demux to the registered flow handler. Packets
// for unknown flows (e.g. retransmissions arriving after completion) are
// dropped silently but counted. Delivery ends the packet's journey: the
// host recycles it once the handler returns, so handlers must copy any
// field they need rather than keep the pointer.
func (h *Host) Receive(p *packet.Packet) {
	h.Tally.RxPackets++
	h.Tally.RxBytes += int64(p.Size())
	// h.handler, spelled out so that the lookup inlines here.
	if ph := h.Demux.lookup(demuxKey(h.ID, p.FlowID)); ph != nil {
		ph.HandlePacket(h.eng.Now(), p)
	}
	h.Pool.Put(p)
}
