// Partitioning for sharded execution: the decomposition of a topology
// into simulation domains, the cross-domain boundary census, and the
// structured routers that keep per-switch forwarding state O(ports)
// instead of O(hosts) on large fabrics.
//
// Every topology has exactly one partition, its natural one, a property of
// the *topology* and never of the worker count: a leaf-spine fabric splits
// into one domain per leaf (the switch plus its hosts — a host is never
// separated from its leaf) and one per spine, and a star stays a single
// domain. Options.Shards only chooses how many goroutines execute the
// domains, which is why results are independent of it (see DESIGN.md
// "Sharded execution").
package topology

import (
	"fmt"

	"ecnsharp/internal/device"
	"ecnsharp/internal/sim"
)

// Boundary describes one directed cross-domain link created by wiring.
type Boundary struct {
	// SrcDom and DstDom are the domains the link leaves and enters.
	SrcDom, DstDom int
	// Prop is the link's propagation delay — the time the destination
	// domain is guaranteed to lag behind the source (the lookahead
	// contribution of this link).
	Prop sim.Time
	// Port is the link's transmitting port.
	Port *device.Port
	// Cut counts the bytes the port carried out of SrcDom, into DstDom.
	Cut *device.Cut
}

// Partition fixes a topology's domain decomposition before wiring.
type Partition struct {
	// Domains is the number of simulation domains.
	Domains int
	// HostDom maps host id to its domain. A host always shares a domain
	// with its access switch.
	HostDom []int
	// Lookahead is the minimum propagation delay over all cross-domain
	// links — the conservative window length. For a single-domain
	// partition it is the (positive) access-link delay, which any window
	// length trivially satisfies.
	Lookahead sim.Time
	// CutLinks is the number of directed cross-domain links the wiring
	// will create (each contributes one handoff buffer).
	CutLinks int
	// switchDom maps each switch, in Net.Switches order, to its domain.
	switchDom []int
}

// PartitionStar computes the decomposition of an n-host star: a single
// domain (every link touches the one switch, so there is nothing to cut).
func PartitionStar(n int, opts Options) Partition {
	lookahead := opts.Link.PropDelay
	if lookahead <= 0 {
		lookahead = sim.Microsecond // the engine wants it positive; unused with no cuts
	}
	return Partition{
		Domains:   1,
		HostDom:   make([]int, n),
		Lookahead: lookahead,
		switchDom: make([]int, 1),
	}
}

// PartitionLeafSpine computes the decomposition of a leaf-spine fabric:
// one domain per leaf (switch plus its hostsPerLeaf hosts, ids leaf-major)
// and one per spine (domains leaves..leaves+spines-1). Every leaf<->spine
// link is cut, in both directions, so the lookahead is the link
// propagation delay.
func PartitionLeafSpine(spines, leaves, hostsPerLeaf int, opts Options) Partition {
	if spines < 1 || leaves < 1 || hostsPerLeaf < 1 {
		panic("topology: leaf-spine dimensions must be positive")
	}
	if opts.Link.PropDelay <= 0 {
		panic("topology: leaf-spine needs a positive propagation delay")
	}
	p := Partition{
		Domains:   leaves + spines,
		HostDom:   make([]int, leaves*hostsPerLeaf),
		Lookahead: opts.Link.PropDelay,
		CutLinks:  2 * leaves * spines,
		switchDom: make([]int, spines+leaves),
	}
	for id := range p.HostDom {
		p.HostDom[id] = id / hostsPerLeaf
	}
	// Net.Switches lists the spines first, then the leaves.
	for s := 0; s < spines; s++ {
		p.switchDom[s] = leaves + s
	}
	for l := 0; l < leaves; l++ {
		p.switchDom[spines+l] = l
	}
	return p
}

// fabricHealth is one simulation domain's private view of a leaf-spine
// fabric's health under fault injection: which leaf<->spine links are up
// and which switches are alive. Every domain owns its own copy — the
// fault injector pre-schedules each transition on every domain's engine
// at the same timestamp — so workers never read another domain's view
// and reroutes stay race-free and worker-count independent.
type fabricHealth struct {
	spines, leaves int
	// linkUp[l*spines+s] is the (leaf l, spine s) bidirectional link state.
	linkUp     []bool
	leafAlive  []bool
	spineAlive []bool
}

func newFabricHealth(spines, leaves int) *fabricHealth {
	h := &fabricHealth{
		spines:     spines,
		leaves:     leaves,
		linkUp:     make([]bool, spines*leaves),
		leafAlive:  make([]bool, leaves),
		spineAlive: make([]bool, spines),
	}
	for i := range h.linkUp {
		h.linkUp[i] = true
	}
	for i := range h.leafAlive {
		h.leafAlive[i] = true
	}
	for i := range h.spineAlive {
		h.spineAlive[i] = true
	}
	return h
}

// leafRouter is the structured forwarding function of a leaf switch:
// local hosts go out their dedicated down port, everything else ECMPs
// across the shared uplink set (in spine order, matching the FIB order
// the map-based wiring used, so the ECMP hash picks identical ports).
//
// With fault injection enabled (health non-nil) remote destinations use
// viaTo[m] instead: the subset of uplinks, still in spine order, that can
// currently reach destination leaf m (uplink s qualifies iff this leaf's
// link to spine s, spine s itself, and spine s's link to leaf m are all
// alive). The ECMP hash re-indexes into the smaller live set, so flows
// deterministically re-spread around dead paths — the reroute-changes-
// path-RTT effect the churn experiments measure. With everything healthy
// viaTo[m] equals the full uplink set in the same order, so enabling
// fault injection without any transitions changes no routing decision.
type leafRouter struct {
	base  int            // first host id attached to this leaf
	self  int            // this leaf's index
	local []*device.Port // down ports, indexed by dst-base
	up    []*device.Port // uplinks in spine order, shared by all remote dsts

	health *fabricHealth    // nil until Net.EnableFaults
	viaTo  [][]*device.Port // per destination leaf, the live uplink subset
}

// Route implements device.Router.
func (r *leafRouter) Route(dst int) []*device.Port {
	if i := dst - r.base; i >= 0 && i < len(r.local) {
		return r.local[i : i+1]
	}
	if r.health == nil {
		return r.up
	}
	return r.viaTo[dst/len(r.local)]
}

// reroute recomputes the per-destination live uplink sets from the
// owning domain's health view. The sets are rebuilt in place (capacity
// reserved at EnableFaults), so steady-state rerouting allocates nothing.
func (r *leafRouter) reroute() {
	h := r.health
	for m := range r.viaTo {
		set := r.viaTo[m][:0]
		if h.leafAlive[r.self] && h.leafAlive[m] {
			for s := 0; s < h.spines; s++ {
				if h.spineAlive[s] && h.linkUp[r.self*h.spines+s] && h.linkUp[m*h.spines+s] {
					set = append(set, r.up[s])
				}
			}
		}
		r.viaTo[m] = set
	}
}

// spineRouter is the structured forwarding function of a spine switch:
// destination hosts map arithmetically to the down port of their leaf.
// With fault injection enabled it consults the owning domain's health
// view at route time (no per-transition rebuild needed): a dead down
// link, dead destination leaf, or this spine itself being dead yields an
// empty route, which the switch blackholes.
type spineRouter struct {
	hostsPerLeaf int
	self         int            // this spine's index
	down         []*device.Port // per leaf, in leaf order

	health *fabricHealth // nil until Net.EnableFaults
}

// Route implements device.Router.
func (r *spineRouter) Route(dst int) []*device.Port {
	l := dst / r.hostsPerLeaf
	if l < 0 || l >= len(r.down) {
		panic(fmt.Sprintf("topology: spine route for unknown host %d", dst))
	}
	if h := r.health; h != nil {
		if !h.spineAlive[r.self] || !h.leafAlive[l] || !h.linkUp[l*h.spines+r.self] {
			return nil
		}
	}
	return r.down[l : l+1]
}
