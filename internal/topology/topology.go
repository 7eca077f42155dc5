// Package topology wires hosts, switches and links into the networks the
// paper evaluates on: the star used for the 8-server testbed and incast
// experiments, a dumbbell, and the 128-host leaf-spine fabric of §5.3.
//
// There is one way to build and drive a network. The constructors
// (NewStar, NewDumbbell, NewLeafSpine) choose a Partition — the whole
// network as one simulation domain when Options.Shards is 0, the
// topology's natural leaf/pod decomposition (see partition.go) when it is
// positive — build one engine per domain under a sim.ShardedEngine, and
// wire every component onto its domain's engine. Net.Shard drives the run
// whatever the partition; a one-domain network runs on it serially, and
// the natural partition is how fabrics scale to 100k hosts. Which domain
// owns what is recorded as data (Part, SwitchDomain, Link.Dom), never
// recomputed from a mode.
package topology

import (
	"fmt"

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
	// TierEdge is the single switch layer of star and dumbbell networks.
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
	// Name is the owning switch's name ("sw0", "left", "leaf3", "spine1").
	Name string
}

// Options configures topology construction.
type Options struct {
	// Link parameterizes every link (the paper's networks are uniform).
	Link LinkParams
	// FabricPropDelay, when positive, overrides Link.PropDelay on the
	// switch-to-switch links (dumbbell bottleneck, leaf<->spine). Under
	// sharding these are the cut links, so this is also the sharded
	// engine's lookahead; the default (Link.PropDelay) keeps the fabric
	// uniform like the paper's networks.
	FabricPropDelay sim.Time
	// NumQueues is the number of service queues per switch egress port.
	NumQueues int
	// NewSched builds the per-port packet scheduler; nil means FIFO.
	NewSched func() queue.Scheduler
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
	// HostBufferBytes bounds the host NIC queue; 0 = unbounded (hosts do
	// not mark or drop in the paper's setups).
	HostBufferBytes int64
	// SharedBufferBytes, when positive, replaces the per-port static
	// buffer with one dynamically-thresholded pool per switch (how real
	// switch ASICs buffer); DTAlpha is the threshold factor (default 1).
	SharedBufferBytes int64
	DTAlpha           float64
	// NoPacketPool disables the per-domain packet free list (the zero
	// value keeps recycling on). Results are byte-identical either way —
	// the pool-hygiene regression test flips this to prove it — so the
	// switch exists for debugging ownership bugs, not for correctness.
	NoPacketPool bool
	// Shards chooses the partition and the worker budget. Zero builds the
	// whole network as one simulation domain. A positive value builds the
	// topology's natural partition (one domain per leaf and per spine, the
	// two sides of a dumbbell, the whole of a star) and executes it on
	// that many worker goroutines. Simulated bytes depend on the
	// partition — same-timestamp events order differently across a cut,
	// so a leaf-spine run at 0 differs from one at >= 1 — and never on
	// the worker count: 1, 2 and N are byte-identical.
	Shards int
}

func (o *Options) defaults() {
	if o.NumQueues <= 0 {
		o.NumQueues = 1
	}
	if o.FabricPropDelay <= 0 {
		o.FabricPropDelay = o.Link.PropDelay
	}
	if o.Shards < 0 {
		o.Shards = 0
	}
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

	// PacketPools recycles packets, one free list per domain so sharded
	// workers never contend: transports allocate from their host's
	// domain pool, destination hosts and dropping queues release to
	// theirs (a packet crossing a boundary migrates pools, which a free
	// list does not mind). Nil entries when Options.NoPacketPool was set.
	PacketPools []*packet.Pool

	// SwitchPorts lists every switch egress port (for drop/mark census).
	SwitchPorts []*device.Port
	// portDoms[i] is the domain owning SwitchPorts[i].
	portDoms []int

	// Links is the directed link census: every transmit port in the
	// network (host NICs included) under a canonical "src-dst" name —
	// "host3-leaf0", "leaf0-spine1", "sw0-host2" — built in wiring order.
	// Fault injection targets links by these names, and LinkFault trace
	// events carry the census index.
	Links   []Link
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

// Link is one entry of the census: a directed transmit port under its
// canonical name.
type Link struct {
	// Name is the canonical "src-dst" identifier.
	Name string
	// Port is the transmitting port.
	Port *device.Port
	// Dom is the simulation domain that owns the port.
	Dom int
	// SwitchIdx indexes Net.Switches for the transmitting switch, or -1
	// for a host NIC.
	SwitchIdx int
	// Cross marks a cross-domain boundary link.
	Cross bool
	// FabricLeaf and FabricSpine are the (leaf, spine) coordinates of a
	// leaf-spine fabric link (either direction); -1 otherwise.
	FabricLeaf, FabricSpine int
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
// "host3-leaf0") to its census index, or -1 when unknown.
func (n *Net) LinkIndex(name string) int {
	if i, ok := n.linkIdx[name]; ok {
		return i
	}
	return -1
}

// SwitchIndex resolves a switch name ("sw0", "left", "leaf2", "spine1")
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
// state in domain dom's health view, advances that domain's routing
// epoch, and recomputes the ECMP sets of the routers dom owns. Under a
// sharded engine it must run on dom's engine — the fault injector
// pre-schedules one such call per domain per transition — and it touches
// only dom-owned state, so workers never race. Physical port state is
// driven separately (through the census ports, on their owning domains).
func (n *Net) ApplyFabricLink(dom, leaf, spine int, up bool) {
	f := n.fabric
	if f == nil {
		panic("topology: ApplyFabricLink on a non-fabric topology")
	}
	h := f.health[dom]
	h.linkUp[leaf*f.spines+spine] = up
	h.epoch++
	n.recomputeDomain(dom)
}

// ApplySwitchAlive records fabric switch sw (an index into Switches)
// dead or alive in domain dom's health view and recomputes dom's
// routers. Same threading contract as ApplyFabricLink. A no-op epoch-
// advance only for switches outside the fabric structure.
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
	h.epoch++
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

// RoutingEpoch returns domain dom's routing-epoch counter: the number of
// fault transitions applied to its health view (0 until fault injection
// is enabled, and forever on healthy runs). Epochs advance only through
// pre-scheduled fault events, identically at any worker count, which is
// what makes reroutes deterministic and traceable.
func (n *Net) RoutingEpoch(dom int) uint64 {
	if n.fabric == nil || n.fabric.health == nil {
		return 0
	}
	return n.fabric.health[dom].epoch
}

// Teardown closes every port in the census: any straggler Send afterward
// panics with a clear error instead of scheduling onto a finished engine.
// Call it once the run has drained.
func (n *Net) Teardown() {
	for _, l := range n.Links {
		l.Port.Close()
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

// PortTo returns the SwitchPorts index of the last-hop egress port feeding
// host id — the Port value its queue events carry once a tracer is
// attached — or -1 when that port is not a switch port.
func (n *Net) PortTo(host int) int {
	eg := n.EgressTo(host)
	for i, p := range n.SwitchPorts {
		if p == eg {
			return i
		}
	}
	return -1
}

// TotalDrops sums tail drops across all switch egress ports.
func (n *Net) TotalDrops() int64 {
	var d int64
	for _, p := range n.SwitchPorts {
		d += p.Egress.Drops
	}
	return d
}

// TotalMarks sums CE marks applied across all switch egress ports.
func (n *Net) TotalMarks() int64 {
	var m int64
	for _, p := range n.SwitchPorts {
		m += p.Egress.EnqMarks + p.Egress.DeqMarks
	}
	return m
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

// newEgress builds a switch egress buffer per the options; pool may be
// nil for static per-port buffering. loc names the owning switch so
// Options.NewAQMAt can assign location-specific marking parameters.
func newEgress(o *Options, loc PortLoc, pool *queue.SharedPool, pkts *packet.Pool) *queue.Egress {
	var sched queue.Scheduler
	if o.NewSched != nil {
		sched = o.NewSched()
	}
	var factory func(int) aqm.AQM
	if at := o.NewAQMAt; at != nil {
		factory = func(q int) aqm.AQM { return at(loc, q) }
	}
	eg := queue.NewEgress(o.NumQueues, sched, o.Link.BufferBytes, factory)
	eg.Pool = pool
	eg.PacketPool = pkts
	return eg
}

// newHostEgress builds a host NIC queue: single FIFO, no marking.
func newHostEgress(o *Options, pkts *packet.Pool) *queue.Egress {
	eg := queue.NewEgress(1, queue.FIFOSched{}, o.HostBufferBytes, nil)
	eg.PacketPool = pkts
	return eg
}

// newNet starts a build over part: one engine and one packet pool per
// domain, under a coordinator with opts.Shards workers. The builders then
// populate it, indexing Engines and PacketPools by domain.
func newNet(part Partition, opts *Options) *Net {
	net := &Net{
		Shard:       sim.NewShardedEngine(part.Domains, part.Lookahead, opts.Shards),
		Engines:     make([]*sim.Engine, part.Domains),
		Hosts:       make([]*device.Host, 0, len(part.HostDom)),
		Part:        part,
		Lookahead:   part.Lookahead,
		PacketPools: make([]*packet.Pool, part.Domains),
		hostPorts:   make([]*device.Port, len(part.HostDom)),
		linkIdx:     make(map[string]int),
		switchDoms:  part.switchDom,
	}
	for d := range net.Engines {
		net.Engines[d] = net.Shard.Domain(d)
		if !opts.NoPacketPool {
			net.PacketPools[d] = &packet.Pool{}
		}
	}
	return net
}

// port builds an egress port owned by srcDom delivering to dst in dstDom.
// When the domains differ the port becomes a boundary: a handoff into the
// destination domain is registered (in call order, which the wiring keeps
// canonical) and the port transmits through it instead of the local
// engine.
func (n *Net) port(srcDom, dstDom int, eg *queue.Egress, rate float64, prop sim.Time, dst device.Node) *device.Port {
	pt := device.NewPort(n.Engines[srcDom], eg, rate, prop, dst)
	if srcDom != dstDom {
		if prop < n.Lookahead {
			panic(fmt.Sprintf("topology: cross-domain link delay %v below lookahead %v", prop, n.Lookahead))
		}
		h := n.Shard.NewHandoff(n.Engines[dstDom], func(a any) {
			dst.Receive(a.(*packet.Packet))
		})
		pt.SetRemote(h)
		n.Boundaries = append(n.Boundaries, Boundary{SrcDom: srcDom, DstDom: dstDom, Prop: prop})
	}
	return pt
}

// addLink registers a transmit port in the directed link census under its
// canonical name. swIdx is the transmitting switch's Net.Switches index
// (-1 for a host NIC); leaf/spine are the fabric coordinates of a
// leaf<->spine link, -1 otherwise.
func (n *Net) addLink(name string, pt *device.Port, dom, swIdx, leaf, spine int) {
	if _, dup := n.linkIdx[name]; dup {
		panic(fmt.Sprintf("topology: duplicate link name %q", name))
	}
	n.linkIdx[name] = len(n.Links)
	n.Links = append(n.Links, Link{
		Name:        name,
		Port:        pt,
		Dom:         dom,
		SwitchIdx:   swIdx,
		Cross:       pt.IsBoundary(),
		FabricLeaf:  leaf,
		FabricSpine: spine,
	})
}

// addSwitchPort records a switch egress port and its owning domain for
// the census and tracer attachment.
func (n *Net) addSwitchPort(dom int, ports ...*device.Port) {
	for _, p := range ports {
		n.SwitchPorts = append(n.SwitchPorts, p)
		n.portDoms = append(n.portDoms, dom)
	}
}

// NewStar builds n hosts attached to one switch. Any host can talk to any
// other; the testbed experiments use hosts 0..n-2 as senders and n-1 as
// the receiver, making the switch egress toward host n-1 the bottleneck.
// A star has no cuttable link — every path crosses the one switch — so it
// is one domain at any Options.Shards.
func NewStar(n int, o Options) *Net {
	if n < 2 {
		panic("topology: star needs at least two hosts")
	}
	opts := &o
	opts.defaults()
	net := newNet(PartitionStar(n, o), opts)
	eng := net.Engines[0]
	sw := device.NewSwitch(eng, "sw0")
	pool := newPool(opts)
	pkts := net.PacketPools[0]
	net.Switches = []*device.Switch{sw}
	for i := 0; i < n; i++ {
		h := device.NewHost(eng, i)
		h.Pool = pkts
		h.NIC = device.NewPort(eng, newHostEgress(opts, pkts), opts.Link.RateBps, opts.Link.PropDelay, sw)
		down := net.port(0, 0, newEgress(opts, PortLoc{TierEdge, 0, "sw0"}, pool, pkts), opts.Link.RateBps, opts.Link.PropDelay, h)
		sw.AddRoute(i, down)
		net.hostPorts[i] = down
		net.addSwitchPort(0, down)
		net.addLink(fmt.Sprintf("host%d-sw0", i), h.NIC, 0, -1, -1, -1)
		net.addLink(fmt.Sprintf("sw0-host%d", i), down, 0, 0, -1, -1)
		net.Hosts = append(net.Hosts, h)
	}
	return net
}

// NewDumbbell builds nPairs senders and nPairs receivers on two switches
// joined by a single bottleneck link: senders 0..nPairs-1 attach to the
// left switch, receivers nPairs..2nPairs-1 to the right. With
// Options.Shards > 0 the two sides are separate domains cut on the
// bottleneck link.
func NewDumbbell(nPairs int, o Options) *Net {
	if nPairs < 1 {
		panic("topology: dumbbell needs at least one pair")
	}
	opts := &o
	opts.defaults()
	net := newNet(PartitionDumbbell(nPairs, o), opts)
	leftDom, rightDom := net.switchDoms[0], net.switchDoms[1]
	left := device.NewSwitch(net.Engines[leftDom], "left")
	right := device.NewSwitch(net.Engines[rightDom], "right")
	leftPool, rightPool := newPool(opts), newPool(opts)
	net.Switches = []*device.Switch{left, right}

	// The inter-switch bottleneck carries AQM in both directions.
	l2r := net.port(leftDom, rightDom, newEgress(opts, PortLoc{TierEdge, 0, "left"}, leftPool, net.PacketPools[leftDom]), opts.Link.RateBps, opts.FabricPropDelay, right)
	r2l := net.port(rightDom, leftDom, newEgress(opts, PortLoc{TierEdge, 1, "right"}, rightPool, net.PacketPools[rightDom]), opts.Link.RateBps, opts.FabricPropDelay, left)
	net.addSwitchPort(leftDom, l2r)
	net.addSwitchPort(rightDom, r2l)
	net.addLink("left-right", l2r, leftDom, 0, -1, -1)
	net.addLink("right-left", r2l, rightDom, 1, -1, -1)

	for i := 0; i < 2*nPairs; i++ {
		dom := net.DomainOfHost(i)
		eng := net.Engines[dom]
		pkts := net.PacketPools[dom]
		h := device.NewHost(eng, i)
		sw, pool, swDom := left, leftPool, leftDom
		swName, swIdx := "left", 0
		if i >= nPairs {
			sw, pool, swDom = right, rightPool, rightDom
			swName, swIdx = "right", 1
		}
		h.Pool = pkts
		h.NIC = device.NewPort(eng, newHostEgress(opts, pkts), opts.Link.RateBps, opts.Link.PropDelay, sw)
		down := net.port(swDom, dom, newEgress(opts, PortLoc{TierEdge, swIdx, swName}, pool, pkts), opts.Link.RateBps, opts.Link.PropDelay, h)
		sw.AddRoute(i, down)
		net.hostPorts[i] = down
		net.addSwitchPort(swDom, down)
		net.addLink(fmt.Sprintf("host%d-%s", i, swName), h.NIC, dom, -1, -1, -1)
		net.addLink(fmt.Sprintf("%s-host%d", swName, i), down, swDom, swIdx, -1, -1)
		net.Hosts = append(net.Hosts, h)
	}
	// Cross routes traverse the bottleneck.
	for i := 0; i < nPairs; i++ {
		right.AddRoute(i, r2l)
		left.AddRoute(nPairs+i, l2r)
	}
	return net
}

// NewLeafSpine builds the §5.3 fabric: spines×leaves switches with
// hostsPerLeaf hosts per leaf, ECMP across all spines for inter-leaf
// traffic. Host ids are leaf-major: leaf l owns hosts [l·hostsPerLeaf,
// (l+1)·hostsPerLeaf). With Options.Shards > 0 the fabric partitions into
// one domain per leaf (switch plus hosts) and one per spine, cut on every
// fabric link.
func NewLeafSpine(spines, leaves, hostsPerLeaf int, o Options) *Net {
	opts := &o
	opts.defaults()
	net := newNet(PartitionLeafSpine(spines, leaves, hostsPerLeaf, o), opts)
	// Switches are listed spines first, then leaves; so are their domains.
	sdom, ldom := net.switchDoms[:spines], net.switchDoms[spines:]

	spineSw := make([]*device.Switch, spines)
	spinePools := make([]*queue.SharedPool, spines)
	spineRoutes := make([]*spineRouter, spines)
	fab := &fabricInfo{
		spines:       spines,
		leaves:       leaves,
		hostsPerLeaf: hostsPerLeaf,
		leafSw:       make([]int, leaves),
		spineSw:      make([]int, spines),
	}
	for s := range spineSw {
		spineSw[s] = device.NewSwitch(net.Engines[sdom[s]], fmt.Sprintf("spine%d", s))
		spinePools[s] = newPool(opts)
		spineRoutes[s] = &spineRouter{hostsPerLeaf: hostsPerLeaf, self: s, down: make([]*device.Port, leaves)}
		spineSw[s].SetRouter(spineRoutes[s])
		fab.spineSw[s] = len(net.Switches)
		net.Switches = append(net.Switches, spineSw[s])
	}
	leafSw := make([]*device.Switch, leaves)
	leafPools := make([]*queue.SharedPool, leaves)
	leafRoutes := make([]*leafRouter, leaves)
	for l := range leafSw {
		leafSw[l] = device.NewSwitch(net.Engines[ldom[l]], fmt.Sprintf("leaf%d", l))
		leafPools[l] = newPool(opts)
		leafRoutes[l] = &leafRouter{base: l * hostsPerLeaf, self: l, local: make([]*device.Port, hostsPerLeaf)}
		leafSw[l].SetRouter(leafRoutes[l])
		fab.leafSw[l] = len(net.Switches)
		net.Switches = append(net.Switches, leafSw[l])
	}
	fab.leafRouters = leafRoutes
	fab.spineRouters = spineRoutes
	net.fabric = fab

	// Hosts and access links.
	for l := 0; l < leaves; l++ {
		dom := ldom[l]
		eng := net.Engines[dom]
		pkts := net.PacketPools[dom]
		for k := 0; k < hostsPerLeaf; k++ {
			id := l*hostsPerLeaf + k
			h := device.NewHost(eng, id)
			h.Pool = pkts
			h.NIC = device.NewPort(eng, newHostEgress(opts, pkts), opts.Link.RateBps, opts.Link.PropDelay, leafSw[l])
			down := net.port(dom, dom, newEgress(opts, PortLoc{TierLeaf, fab.leafSw[l], leafSw[l].Name()}, leafPools[l], pkts), opts.Link.RateBps, opts.Link.PropDelay, h)
			leafRoutes[l].local[k] = down
			net.hostPorts[id] = down
			net.addSwitchPort(dom, down)
			net.addLink(fmt.Sprintf("host%d-leaf%d", id, l), h.NIC, dom, -1, -1, -1)
			net.addLink(fmt.Sprintf("leaf%d-host%d", l, id), down, dom, fab.leafSw[l], -1, -1)
			net.Hosts = append(net.Hosts, h)
		}
	}

	// Leaf <-> spine fabric links. The leaf's uplink set is appended in
	// spine order — the same equal-cost order the FIB-based wiring used —
	// so the ECMP hash selects identical paths.
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			up := net.port(ldom[l], sdom[s], newEgress(opts, PortLoc{TierLeaf, fab.leafSw[l], leafSw[l].Name()}, leafPools[l], net.PacketPools[ldom[l]]), opts.Link.RateBps, opts.FabricPropDelay, spineSw[s])
			down := net.port(sdom[s], ldom[l], newEgress(opts, PortLoc{TierSpine, fab.spineSw[s], spineSw[s].Name()}, spinePools[s], net.PacketPools[sdom[s]]), opts.Link.RateBps, opts.FabricPropDelay, leafSw[l])
			net.addSwitchPort(ldom[l], up)
			net.addSwitchPort(sdom[s], down)
			net.addLink(fmt.Sprintf("leaf%d-spine%d", l, s), up, ldom[l], fab.leafSw[l], l, s)
			net.addLink(fmt.Sprintf("spine%d-leaf%d", s, l), down, sdom[s], fab.spineSw[s], l, s)
			leafRoutes[l].up = append(leafRoutes[l].up, up)
			spineRoutes[s].down[l] = down
		}
	}
	return net
}
