// Package topology wires hosts, switches and links into the networks the
// paper evaluates on: the star used for the 8-server testbed and incast
// experiments, and the 128-host leaf-spine fabric of §5.3.
//
// There is one way to build and drive a network. The constructors
// (NewStar, NewLeafSpine) take the topology's one Partition — a star is
// one simulation domain, a leaf-spine one per leaf and one per spine (see
// partition.go) — build one engine per domain under a sim.ShardedEngine,
// and wire every component onto its domain's engine. Net.Shard drives the
// run on Options.Shards workers; a one-domain network runs on it serially.
// Which domain owns what is recorded as data (Part, SwitchDomain,
// Link.Dom), never recomputed from a mode.
package topology

import (
	"fmt"
	"strconv"
	"unsafe"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// LinkParams describes one direction of a link.
type LinkParams struct {
	RateBps     float64  // link capacity, bits/second
	PropDelay   sim.Time // one-way propagation delay
	BufferBytes int64    // egress buffer bound (switch side); 0 = unbounded
}

// TenGbps is the link rate used throughout the paper's evaluation.
const TenGbps = 10e9

// Switch tier names reported in PortLoc.Tier.
const (
	// TierEdge is the single switch layer of a star network.
	TierEdge = "edge"
	// TierLeaf is the host-facing layer of a leaf-spine fabric.
	TierLeaf = "leaf"
	// TierSpine is the core layer of a leaf-spine fabric.
	TierSpine = "spine"
)

// PortLoc identifies where a switch egress port sits in the fabric, for
// location-aware AQM assignment via Options.NewAQMAt.
type PortLoc struct {
	// Tier is TierEdge, TierLeaf or TierSpine.
	Tier string
	// Switch indexes the owning switch in Net.Switches.
	Switch int
	// Name is the owning switch's name ("sw0", "leaf3", "spine1").
	Name string
}

// Options configures topology construction.
type Options struct {
	// Link parameterizes every link (the paper's networks are uniform).
	// The switch-to-switch links (leaf<->spine) are the cut links between
	// domains, so Link.PropDelay is also the sharded engine's lookahead.
	Link LinkParams
	// Weights, when non-nil, gives every switch egress port len(Weights)
	// service queues under a DWRR scheduler with these weights (Figure 13);
	// nil means one FIFO queue.
	Weights []int
	// NewAQM builds the AQM for switch egress queue q of some port,
	// whatever the port's location; it is shorthand for a NewAQMAt that
	// ignores loc, and is ignored when NewAQMAt is set.
	NewAQM func(q int) aqm.AQM
	// NewAQMAt builds the AQM for queue q of a port at loc, so
	// heterogeneous fabrics can run different marking parameters per
	// switch or per tier (the internal/tune multi-agent hook). It is
	// called once per (port, queue); nil (with NewAQM nil) means no
	// marking.
	NewAQMAt func(loc PortLoc, q int) aqm.AQM
	// SharedBufferBytes, when positive, replaces the per-port static
	// buffer with one dynamically-thresholded pool per switch (how real
	// switch ASICs buffer); DTAlpha is the threshold factor (default 1).
	SharedBufferBytes int64
	DTAlpha           float64
	// noPacketPool disables the per-domain packet free lists (the zero
	// value keeps recycling on). Results are byte-identical either way.
	// Only the pool-hygiene tests set it: an unpooled run is the
	// reference they compare a pooled one against.
	noPacketPool bool
	// Shards is the worker goroutine budget the topology's domains run on
	// (0 means one worker). It never changes the partition, so no
	// simulated byte depends on it: 0, 1 and N are byte-identical.
	Shards int
}

func (o *Options) defaults() {
	if o.NewAQMAt == nil && o.NewAQM != nil {
		blind := o.NewAQM
		o.NewAQMAt = func(_ PortLoc, q int) aqm.AQM { return blind(q) }
	}
}

// Net is a constructed network.
type Net struct {
	// Shard drives the run: the conservative-time coordinator over the
	// domain engines, or the plain serial loop when there is one domain.
	Shard *sim.ShardedEngine
	// Engines lists the per-domain engines. Component wiring and helpers
	// index it by domain.
	Engines []*sim.Engine

	Hosts    []*device.Host
	Switches []*device.Switch

	// Part is the domain decomposition the network was built with.
	Part Partition
	// Boundaries lists the directed cross-domain links the wiring
	// created, in handoff registration order (empty with one domain).
	Boundaries []Boundary
	// Lookahead is the sharded engine's conservative window length (the
	// partition's min cut propagation delay).
	Lookahead sim.Time

	// PacketPools recycles packets: one pool per domain, which counts what
	// the domain got and put, over one free list per worker group
	// (sim.ShardedEngine.Group), which only one worker ever touches.
	// Transports allocate from their host's domain pool, destination
	// hosts and dropping queues release to theirs, so a packet that dies
	// in another group's domain moves to that group's list; the domains of
	// one group reuse each other's. Nil entries when the pool-hygiene
	// tests turned pooling off.
	PacketPools []*packet.Pool

	// tallies[d] is what domain d's ports and hosts count into.
	tallies []tally
	// demuxes[d] holds the flow handlers of domain d's hosts. Each is its
	// own 64-byte allocation, like a packet pool.
	demuxes []*device.Demux

	// SwitchPorts lists every switch egress port (for tracer attachment).
	SwitchPorts []*device.Port
	// portDoms[i] is the domain owning SwitchPorts[i].
	portDoms []int

	// Links is the directed link census: every transmit port in the
	// network (host NICs included), built in wiring order. Fault injection
	// targets links by their canonical names (Link.Name, LinkIndex), and
	// LinkFault trace events carry the census index.
	Links []Link
	// linkIdx maps canonical link names to census indices; LinkIndex
	// builds it on its first call, so only runs that name links pay for
	// it.
	linkIdx map[string]int
	// switchDoms[i] is the domain owning Switches[i].
	switchDoms []int
	// fabric records the leaf-spine structure for fault-driven rerouting
	// (nil on other topologies).
	fabric *fabricInfo

	// hostPorts[h] is the switch egress port that delivers to host h
	// (the port whose queue is the bottleneck in star experiments).
	hostPorts []*device.Port
}

// Link is one entry of the census: a directed transmit port and where the
// wiring put it, in 32 bytes. It stores no name; Name formats it.
type Link struct {
	// Port is the transmitting port.
	Port *device.Port
	// From is the transmitting switch, or nil for a host NIC.
	From *device.Switch
	// Dom is the simulation domain that owns the port.
	Dom int32
	// Host is the host at the link's host end — the source of a NIC, the
	// destination of an access switch port — or -1 on a fabric link.
	Host int32
	// FabricLeaf and FabricSpine are the (leaf, spine) coordinates of a
	// leaf-spine fabric link (either direction); -1 otherwise.
	FabricLeaf, FabricSpine int32
}

// Name returns the link's canonical "src-dst" name — "host3-leaf0",
// "leaf0-spine1", "sw0-host2" — from the nodes at its ends.
func (l *Link) Name() string {
	var buf [32]byte
	b := buf[:0]
	if l.From == nil { // a NIC: the host sends
		b = appendHost(b, l.Host)
	} else {
		b = append(b, l.From.Name()...)
	}
	b = append(b, '-')
	if l.From != nil && l.Host >= 0 { // an access switch port: the host receives
		b = appendHost(b, l.Host)
	} else {
		b = append(b, l.Port.Dst.(device.Node).Name()...)
	}
	return string(b)
}

// appendHost appends host id's name ("host3") to b.
func appendHost(b []byte, id int32) []byte {
	return strconv.AppendInt(append(b, "host"...), int64(id), 10)
}

// fabricInfo records the leaf-spine structure needed to re-resolve ECMP
// around faults. It is populated by NewLeafSpine; health views are only
// materialized by EnableFaults.
type fabricInfo struct {
	spines, leaves, hostsPerLeaf int
	leafRouters                  []*leafRouter
	spineRouters                 []*spineRouter
	leafSw, spineSw              []int           // indices into Net.Switches
	health                       []*fabricHealth // per domain, after EnableFaults
}

// Domains returns the number of simulation domains.
func (n *Net) Domains() int { return len(n.Engines) }

// DomainOfHost returns the domain owning host id.
func (n *Net) DomainOfHost(id int) int { return n.Part.HostDom[id] }

// EngineOf returns the engine that host id's events run on. Components
// bound to a host (transports, samplers on its last-hop queue) must
// schedule here.
func (n *Net) EngineOf(host int) *sim.Engine { return n.Engines[n.DomainOfHost(host)] }

// LinkIndex resolves a canonical directed link name ("leaf0-spine1",
// "host3-leaf0") to its census index, or -1 when unknown. The first call
// indexes the census by name; like the wiring, it is not safe for
// concurrent use.
func (n *Net) LinkIndex(name string) int {
	if n.linkIdx == nil {
		n.linkIdx = make(map[string]int, len(n.Links))
		for i := range n.Links {
			name := n.Links[i].Name()
			if _, dup := n.linkIdx[name]; dup {
				panic(fmt.Sprintf("topology: duplicate link name %q", name))
			}
			n.linkIdx[name] = i
		}
	}
	if i, ok := n.linkIdx[name]; ok {
		return i
	}
	return -1
}

// SwitchIndex resolves a switch name ("sw0", "leaf2", "spine1")
// to its index in Switches, or -1 when unknown.
func (n *Net) SwitchIndex(name string) int {
	for i, sw := range n.Switches {
		if sw.Name() == name {
			return i
		}
	}
	return -1
}

// SwitchDomain returns the domain owning Switches[i].
func (n *Net) SwitchDomain(i int) int { return n.switchDoms[i] }

// SwitchFabric classifies Switches[i] on a leaf-spine fabric: (leaf, -1)
// for a leaf, (-1, spine) for a spine, (-1, -1) for non-fabric switches
// or non-fabric topologies.
func (n *Net) SwitchFabric(i int) (leaf, spine int) {
	if n.fabric != nil {
		for l, idx := range n.fabric.leafSw {
			if idx == i {
				return l, -1
			}
		}
		for s, idx := range n.fabric.spineSw {
			if idx == i {
				return -1, s
			}
		}
	}
	return -1, -1
}

// EnableFaults prepares the network for fault injection: every switch
// drops unroutable packets into its domain's packet pool instead of
// panicking, and on a leaf-spine fabric each domain gets a private health
// view (see fabricHealth) so routers can re-resolve ECMP around dead
// links. Idempotent; must be called before the run starts. With all links
// healthy the recomputed ECMP sets are identical — same ports, same spine
// order — to the healthy fast path, so enabling fault injection with an
// empty schedule changes no simulated byte.
func (n *Net) EnableFaults() {
	for i, sw := range n.Switches {
		sw.EnableBlackhole(n.PacketPools[n.switchDoms[i]])
	}
	f := n.fabric
	if f == nil || f.health != nil {
		return
	}
	f.health = make([]*fabricHealth, n.Domains())
	for d := range f.health {
		f.health[d] = newFabricHealth(f.spines, f.leaves)
	}
	for l, r := range f.leafRouters {
		r.health = f.health[n.switchDoms[f.leafSw[l]]]
		r.viaTo = make([][]*device.Port, f.leaves)
		for m := range r.viaTo {
			r.viaTo[m] = make([]*device.Port, 0, f.spines)
		}
		r.reroute()
	}
	for s, r := range f.spineRouters {
		r.health = f.health[n.switchDoms[f.spineSw[s]]]
	}
}

// ApplyFabricLink records the (leaf, spine) bidirectional fabric link
// state in domain dom's health view and recomputes the ECMP sets of the
// routers dom owns. Under a sharded engine it must run on dom's engine —
// the fault injector pre-schedules one such call per domain per
// transition — and it touches only dom-owned state, so workers never
// race. Physical port state is driven separately (through the census
// ports, on their owning domains).
func (n *Net) ApplyFabricLink(dom, leaf, spine int, up bool) {
	f := n.fabric
	if f == nil {
		panic("topology: ApplyFabricLink on a non-fabric topology")
	}
	h := f.health[dom]
	h.linkUp[leaf*f.spines+spine] = up
	n.recomputeDomain(dom)
}

// ApplySwitchAlive records fabric switch sw (an index into Switches)
// dead or alive in domain dom's health view and recomputes dom's
// routers. Same threading contract as ApplyFabricLink. A switch outside
// the fabric structure changes no health state.
func (n *Net) ApplySwitchAlive(dom, sw int, alive bool) {
	f := n.fabric
	if f == nil {
		return
	}
	h := f.health[dom]
	l, s := n.SwitchFabric(sw)
	switch {
	case l >= 0:
		h.leafAlive[l] = alive
	case s >= 0:
		h.spineAlive[s] = alive
	}
	n.recomputeDomain(dom)
}

// recomputeDomain rebuilds the ECMP sets of the leaf routers domain dom
// owns (spine routers consult health at route time and need no rebuild).
func (n *Net) recomputeDomain(dom int) {
	f := n.fabric
	for l, r := range f.leafRouters {
		if n.switchDoms[f.leafSw[l]] == dom {
			r.reroute()
		}
	}
}

// AttachTracer attaches t to the whole network: to the engines — whose
// tracer the transport endpoints and samplers emit through — and to every
// switch egress port, each identified by its index in SwitchPorts, so the
// Port field of a queue event indexes directly into SwitchPorts. With
// several domains each domain's emissions are buffered during a window and
// merged into t at every barrier in (time, domain, emission order) order,
// so t itself is only ever invoked from the coordinating goroutine.
//
// Attaching is idempotent: calling it again (with the same or another
// tracer) simply rewires every attachment point, so it is safe before the
// run, between partial runs (RunUntil), or after completion — but not
// while the engine is mid-run. A nil t detaches everything and restores
// the untraced fast path.
func (n *Net) AttachTracer(t trace.Tracer) {
	n.Shard.SetTracer(t)
	for i, p := range n.SwitchPorts {
		p.Egress.SetTracer(n.Shard.DomainTracer(n.portDoms[i]), i)
	}
}

// TotalDrops sums tail drops across all switch egress ports.
func (n *Net) TotalDrops() int64 {
	var d int64
	for i := range n.tallies {
		d += n.tallies[i].switches.Drops
	}
	return d
}

// TotalMarks sums CE marks applied across all switch egress ports.
func (n *Net) TotalMarks() int64 {
	var m int64
	for i := range n.tallies {
		t := &n.tallies[i].switches
		m += t.EnqMarks + t.DeqMarks
	}
	return m
}

// Report returns the engine's run report (sim.ShardedEngine.Report) with
// the marks of every switch egress by kind.
func (n *Net) Report() sim.RunReport {
	r := n.Shard.Report()
	for i := range n.tallies {
		for k, m := range n.tallies[i].switches.MarkKinds {
			r.MarkKinds[k] += uint64(m)
		}
	}
	return r
}

// Host returns host id (panics if out of range).
func (n *Net) Host(id int) *device.Host { return n.Hosts[id] }

// EgressTo returns the last-hop switch egress port feeding host id; its
// queue is what the paper samples in the microscopic views (Figure 10).
func (n *Net) EgressTo(host int) *device.Port {
	if host < 0 || host >= len(n.hostPorts) {
		panic(fmt.Sprintf("topology: no egress port recorded for host %d", host))
	}
	return n.hostPorts[host]
}

// newPool builds a switch's shared buffer pool if configured.
func newPool(o *Options) *queue.SharedPool {
	if o.SharedBufferBytes <= 0 {
		return nil
	}
	alpha := o.DTAlpha
	if alpha == 0 {
		alpha = 1
	}
	return queue.NewSharedPool(o.SharedBufferBytes, alpha)
}

// A device.Port holds its egress buffer and that buffer's service queue
// and AQM slot by value: everything but the AQM, the packets and the
// settings its switch shares that an event on the port touches, in one
// block, so that a forwarding event on a fabric far larger than the cache
// misses on one object, not on nine. See DESIGN.md "Hot path & memory
// discipline".
//
// Ports are allocated in per-domain slabs (see slab) — one slice of
// hostBlocks per access switch, one slice of cutBlocks per switch for its
// switch-facing ports — never interleaved across domains, so that the
// ports of two domains, which two workers write concurrently, share no
// cache line (TestLayoutDomainsShareNoCacheLine). A port counts nothing in
// its block but a cut link's bytes: drops, marks and host traffic go to
// its domain's tally.

// hostBlock is one host with both ends of its access link. A host and its
// access switch always share a domain, so the three never run on different
// workers.
type hostBlock struct {
	host device.Host
	nic  device.Port // host -> access switch
	down device.Port // access switch -> host
}

// cutBlock is a port whose link a partition cuts, with the one count a port
// keeps of its own, the bytes it carried out of the domain: the audit needs
// it per cut link, and only cut links carry it.
type cutBlock struct {
	port device.Port
	cut  device.Cut
}

// settingsLine is a queue.Settings padded to a 64-byte line. Allocated one
// at a time, each starts a line of its own, like a packet-pool handle, so
// no line holds two domains' settings.
type settingsLine struct {
	queue.Settings
	_ [settingsPad]byte
}

// settingsPad rounds a settingsLine up to one 64-byte line.
const settingsPad = (64 - unsafe.Sizeof(queue.Settings{})%64) % 64

// newSettings returns s on a line of its own.
func newSettings(s queue.Settings) *queue.Settings {
	l := &settingsLine{Settings: s}
	return &l.Settings
}

// tally is one domain's counters, split by the role of what counts into it:
// its switch ports (what TotalDrops, TotalMarks and Report sum), its host
// NICs and its hosts. Ports and hosts reach it through one pointer word
// instead of carrying counters that are only ever summed. It is padded to
// whole cache lines, like a packet pool, and the domains' tallies are one
// slice: whole lines with no pointers, so no malloc header, which the
// allocator's size classes start on a line. Two domains' tallies, which
// two workers write, share no line.
type tally struct {
	_        [tallyPad]byte
	switches queue.Tally
	nics     queue.Tally
	hosts    device.HostTally
}

// tallyPad rounds a tally up to whole 64-byte lines. It leads the struct: a
// zero-size last field would be padded.
const tallyPad = (64 - (2*unsafe.Sizeof(queue.Tally{})+unsafe.Sizeof(device.HostTally{}))%64) % 64

// slab returns n zero blocks in one allocation of at least 512 bytes. Every
// allocator size class from 512 bytes up is a whole number of 64-byte
// lines, so a slab has its lines to itself and two domains' slabs never
// share one, however few blocks they hold.
func slab[B any](n int) []B {
	var b B
	size := int(unsafe.Sizeof(b))
	return make([]B, n, max(n, (512+size-1)/size))
}

// switchNode is a switch as the builders see it while they hang ports and
// hosts off it: the switch, where it sits, and what its ports share.
type switchNode struct {
	sw  *device.Switch
	idx int // in Net.Switches
	dom int
	// set is its ports' buffer bound, shared pool, packet pool and tally;
	// nics, which its first host makes, is its hosts' NICs' packet pool and
	// tally. A host shares its switch's domain, so nics is the domain's.
	set, nics *queue.Settings
	// aqmFor builds the AQM of queue q of a port of this switch (nil: no
	// marking): Options.NewAQMAt at the switch's location.
	aqmFor func(q int) aqm.AQM
}

// newNet starts a build over part: one engine, one tally, one flow demux
// and one packet pool per domain, under a coordinator with opts.Shards
// workers, and the pools of a worker group sharing the free list of its
// first domain's. Each pool and each demux is its own 64-byte allocation,
// which starts a cache line; in one slice, past 512 bytes (eight domains) a
// malloc header would put every one 8 bytes past a line, across two
// domains' lines. The builders then populate it, indexing Engines, tallies,
// demuxes and PacketPools by domain. switchLinks is
// the number of directed switch-to-switch links the builder will add, which
// with the host count sizes the census.
func newNet(part Partition, opts *Options, switchLinks int) *Net {
	hosts := len(part.HostDom)
	net := &Net{
		Shard:       sim.NewShardedEngine(part.Domains, part.Lookahead, opts.Shards),
		Engines:     make([]*sim.Engine, part.Domains),
		Hosts:       make([]*device.Host, 0, hosts),
		Part:        part,
		Lookahead:   part.Lookahead,
		PacketPools: make([]*packet.Pool, part.Domains),
		tallies:     make([]tally, part.Domains),
		demuxes:     make([]*device.Demux, part.Domains),
		SwitchPorts: make([]*device.Port, 0, hosts+switchLinks),
		portDoms:    make([]int, 0, hosts+switchLinks),
		Links:       make([]Link, 0, 2*hosts+switchLinks),
		hostPorts:   make([]*device.Port, hosts),
		switchDoms:  part.switchDom,
	}
	for d := range net.Engines {
		net.Engines[d] = net.Shard.Domain(d)
		net.demuxes[d] = new(device.Demux)
	}
	if !opts.noPacketPool {
		for d := range net.PacketPools {
			pl := new(packet.Pool)
			if g := net.Shard.Group(d); g != d {
				pl.Share(net.PacketPools[g])
			}
			net.PacketPools[d] = pl
		}
	}
	return net
}

// addSwitch creates the next switch of Net.Switches, on the domain the
// partition gave it.
func (n *Net) addSwitch(o *Options, name, tier string) *switchNode {
	s := &switchNode{idx: len(n.Switches)}
	s.dom = n.switchDoms[s.idx]
	s.set = newSettings(queue.Settings{BufferBytes: o.Link.BufferBytes, Pool: newPool(o),
		PacketPool: n.PacketPools[s.dom], Tally: &n.tallies[s.dom].switches})
	s.sw = device.NewSwitch(n.Engines[s.dom], name)
	n.Switches = append(n.Switches, s.sw)
	if at := o.NewAQMAt; at != nil {
		loc := PortLoc{Tier: tier, Switch: s.idx, Name: name}
		s.aqmFor = func(q int) aqm.AQM { return at(loc, q) }
	}
	return s
}

// initPort builds pt around its egress: owned by srcDom, delivering to
// dst in dstDom. When the domains differ the port becomes a boundary, which
// counts what it carries in cut (nil on a link no partition cuts): a
// handoff into the destination domain is registered (in call order, which
// the wiring keeps canonical) and the port transmits through it instead of
// the local engine.
func (n *Net) initPort(pt *device.Port, cut *device.Cut, srcDom, dstDom int, rate float64, prop sim.Time, dst device.Node) *device.Port {
	pt.Init(n.Engines[srcDom], rate, prop, dst)
	if srcDom != dstDom {
		if prop < n.Lookahead {
			panic(fmt.Sprintf("topology: cross-domain link delay %v below lookahead %v", prop, n.Lookahead))
		}
		pt.SetRemote(cut, n.Shard.NewHandoffFrom(n.Engines[srcDom], n.Engines[dstDom], device.Deliver))
		n.Boundaries = append(n.Boundaries, Boundary{SrcDom: srcDom, DstDom: dstDom, Prop: prop, Port: pt, Cut: cut})
	}
	return pt
}

// switchPort builds, in pt, an egress port of switch s toward dst in
// dstDom: the buffer per the options (DWRR weights, the AQM for the
// switch's location) under the switch's settings, then the port.
func (n *Net) switchPort(o *Options, pt *device.Port, cut *device.Cut, s *switchNode, dstDom int, dst device.Node) *device.Port {
	pt.Egress.Init(o.Weights, s.aqmFor, s.set)
	return n.initPort(pt, cut, s.dom, dstDom, o.Link.RateBps, o.Link.PropDelay, dst)
}

// switchLink builds, in b, the port of switch from toward switch to over a
// fabric link, and enters it in the census; leaf and spine are the link's
// fabric coordinates.
func (n *Net) switchLink(o *Options, b *cutBlock, from, to *switchNode, leaf, spine int) *device.Port {
	pt := n.switchPort(o, &b.port, &b.cut, from, to.dom, to.sw)
	n.addSwitchPort(from.dom, pt)
	n.Links = append(n.Links, Link{Port: pt, From: from.sw, Dom: int32(from.dom), Host: -1, FabricLeaf: int32(leaf), FabricSpine: int32(spine)})
	return pt
}

// addHost builds host id in b, attached to switch s (whose domain it
// shares): the host, its NIC (single unbounded FIFO — hosts neither mark
// nor drop in the paper's setups) toward the switch and the switch's port
// back down to it, entered in the census. It returns the down port, which
// the caller routes the host's traffic to.
func (n *Net) addHost(o *Options, b *hostBlock, id int, s *switchNode) *device.Port {
	h := &b.host
	h.Init(n.Engines[s.dom], id, &n.tallies[s.dom].hosts, n.demuxes[s.dom])
	h.Pool = n.PacketPools[s.dom]
	if s.nics == nil {
		s.nics = newSettings(queue.Settings{PacketPool: h.Pool, Tally: &n.tallies[s.dom].nics})
	}
	b.nic.Egress.Init(nil, nil, s.nics)
	h.NIC = n.initPort(&b.nic, nil, s.dom, s.dom, o.Link.RateBps, o.Link.PropDelay, s.sw)
	down := n.switchPort(o, &b.down, nil, s, s.dom, h)
	n.hostPorts[id] = down
	n.addSwitchPort(s.dom, down)
	n.Links = append(n.Links,
		Link{Port: h.NIC, Dom: int32(s.dom), Host: int32(id), FabricLeaf: -1, FabricSpine: -1},
		Link{Port: down, From: s.sw, Dom: int32(s.dom), Host: int32(id), FabricLeaf: -1, FabricSpine: -1})
	n.Hosts = append(n.Hosts, h)
	return down
}

// addSwitchPort records a switch egress port and its owning domain for
// the census and tracer attachment.
func (n *Net) addSwitchPort(dom int, p *device.Port) {
	n.SwitchPorts = append(n.SwitchPorts, p)
	n.portDoms = append(n.portDoms, dom)
}

// NewStar builds n hosts attached to one switch. Any host can talk to any
// other; the testbed experiments use hosts 0..n-2 as senders and n-1 as
// the receiver, making the switch egress toward host n-1 the bottleneck.
// A star has no cuttable link — every path crosses the one switch — so it
// is one domain.
func NewStar(n int, o Options) *Net {
	if n < 2 {
		panic("topology: star needs at least two hosts")
	}
	opts := &o
	opts.defaults()
	net := newNet(PartitionStar(n, o), opts, 0)
	sw := net.addSwitch(opts, "sw0", TierEdge)
	blocks := slab[hostBlock](n)
	for i := range blocks {
		sw.sw.AddRoute(i, net.addHost(opts, &blocks[i], i, sw))
	}
	return net
}

// NewLeafSpine builds the §5.3 fabric: spines×leaves switches with
// hostsPerLeaf hosts per leaf, ECMP across all spines for inter-leaf
// traffic. Host ids are leaf-major: leaf l owns hosts [l·hostsPerLeaf,
// (l+1)·hostsPerLeaf). The fabric partitions into one domain per leaf
// (switch plus hosts) and one per spine, cut on every fabric link.
func NewLeafSpine(spines, leaves, hostsPerLeaf int, o Options) *Net {
	opts := &o
	opts.defaults()
	net := newNet(PartitionLeafSpine(spines, leaves, hostsPerLeaf, o), opts, 2*spines*leaves)

	// Switches are listed spines first, then leaves. Each owns one slab of
	// its switch-facing ports; a leaf also owns the slab of its hosts.
	spineSw := make([]*switchNode, spines)
	spineDown := make([][]cutBlock, spines)
	spineRoutes := make([]*spineRouter, spines)
	fab := &fabricInfo{
		spines:       spines,
		leaves:       leaves,
		hostsPerLeaf: hostsPerLeaf,
		leafSw:       make([]int, leaves),
		spineSw:      make([]int, spines),
	}
	for s := range spineSw {
		spineSw[s] = net.addSwitch(opts, "spine"+strconv.Itoa(s), TierSpine)
		spineDown[s] = slab[cutBlock](leaves)
		spineRoutes[s] = &spineRouter{hostsPerLeaf: hostsPerLeaf, self: s, down: make([]*device.Port, leaves)}
		spineSw[s].sw.SetRouter(spineRoutes[s])
		fab.spineSw[s] = spineSw[s].idx
	}
	leafSw := make([]*switchNode, leaves)
	leafRoutes := make([]*leafRouter, leaves)
	for l := range leafSw {
		leafSw[l] = net.addSwitch(opts, "leaf"+strconv.Itoa(l), TierLeaf)
		leafRoutes[l] = &leafRouter{
			base:  l * hostsPerLeaf,
			self:  l,
			local: make([]*device.Port, hostsPerLeaf),
			up:    make([]*device.Port, 0, spines),
		}
		leafSw[l].sw.SetRouter(leafRoutes[l])
		fab.leafSw[l] = leafSw[l].idx
	}
	fab.leafRouters = leafRoutes
	fab.spineRouters = spineRoutes
	net.fabric = fab

	// Hosts and access links.
	for l, leaf := range leafSw {
		blocks := slab[hostBlock](hostsPerLeaf)
		for k := range blocks {
			leafRoutes[l].local[k] = net.addHost(opts, &blocks[k], l*hostsPerLeaf+k, leaf)
		}
	}

	// Leaf <-> spine fabric links. The leaf's uplink set is appended in
	// spine order — the same equal-cost order the FIB-based wiring used —
	// so the ECMP hash selects identical paths.
	for l, leaf := range leafSw {
		leafUp := slab[cutBlock](spines)
		for s, spine := range spineSw {
			up := net.switchLink(opts, &leafUp[s], leaf, spine, l, s)
			leafRoutes[l].up = append(leafRoutes[l].up, up)
			spineRoutes[s].down[l] = net.switchLink(opts, &spineDown[s][l], spine, leaf, l, s)
		}
	}
	return net
}
