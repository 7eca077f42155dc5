package fault

import (
	"fmt"
	"strings"

	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
)

// Injector records the transitions installed on a network, for
// inspection by tests and experiment reports.
type Injector struct {
	Net         *topology.Net
	Transitions []Transition
}

// Install expands s and pre-schedules every transition on the network's
// domain engines. It must run before the simulation starts (construction
// thread): pre-run scheduling fixes each transition's event-queue order,
// so a churn run is exactly as deterministic — including across sharded
// worker counts — as a healthy one.
//
// Two properties keep faults safe under the sharded engine's
// conservative windows, both pinned by tests in this package:
//
//   - A link going down only *removes* future messages; packets already
//     handed off across a domain boundary are never recalled, they drain
//     at the receiver as scheduled. Fewer messages can never violate a
//     conservative lookahead, so the windows computed from the healthy
//     topology remain correct through any outage.
//   - A degrade may change a cross-domain link's propagation delay, and a
//     *shorter* delay would break the windows (a message could arrive
//     inside the current one). Install therefore rejects any degrade that
//     sets a boundary link's delay below the engine's lookahead.
//
// Every transition also mutates only state owned by the domain whose
// engine runs it — ports by their owner, each fabric-health view by its
// own domain — so workers never race on fault state.
func Install(net *topology.Net, s *Schedule) (*Injector, error) {
	trs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	net.EnableFaults()
	for _, t := range trs {
		if err := schedule(net, t); err != nil {
			return nil, err
		}
	}
	return &Injector{Net: net, Transitions: trs}, nil
}

// emitFault traces one LinkFault transition on eng's tracer (a no-op on
// untraced runs). link is the census index or -1; sw the switch index or
// -1.
func emitFault(eng *sim.Engine, kind trace.FaultKind, link, sw int, epoch uint64, rate float64, prop sim.Time) {
	if tr := eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.LinkFault, Fault: kind,
			At: int64(eng.Now()), Port: link, Queue: -1, Src: sw, Dst: -1,
			Seq: int64(epoch), Value: rate, Dur: int64(prop)})
	}
}

// emitReroute traces one routing-epoch advance in domain dom.
func emitReroute(eng *sim.Engine, dom int, epoch uint64) {
	if tr := eng.Tracer(); tr != nil {
		tr.Trace(trace.Event{Type: trace.Reroute, At: int64(eng.Now()),
			Port: -1, Queue: -1, Src: dom, Dst: -1, Seq: int64(epoch)})
	}
}

// reverseName flips a canonical "a-b" link name to "b-a".
func reverseName(name string) string {
	a, b, ok := strings.Cut(name, "-")
	if !ok {
		return ""
	}
	return b + "-" + a
}

// schedule installs one transition's callbacks.
func schedule(net *topology.Net, t Transition) error {
	if t.Action.isLink() {
		return scheduleLink(net, t)
	}
	return scheduleSwitch(net, t)
}

func scheduleLink(net *topology.Net, t Transition) error {
	fi := net.LinkIndex(t.Link)
	if fi < 0 {
		return fmt.Errorf("fault: unknown link %q", t.Link)
	}
	fwd := net.Links[fi]

	if t.Action == Degrade {
		// Lookahead conservatism: a boundary link's propagation delay is a
		// floor the sharded windows were sized from; shrinking it would let
		// a handoff land inside the current window. Reject instead.
		if fwd.Port.IsBoundary() && t.Prop > 0 && t.Prop < net.Lookahead {
			return fmt.Errorf("fault: degrade of cross-domain link %q to %v below lookahead %v",
				t.Link, t.Prop, net.Lookahead)
		}
		tr := t
		eng := net.Engines[fwd.Dom]
		eng.Schedule(tr.At, func() {
			fwd.Port.Degrade(tr.RateBps, tr.Prop)
			emitFault(eng, trace.FaultDegrade, fi, -1, tr.Epoch, tr.RateBps, tr.Prop)
		})
		return nil
	}

	// A down/up transition models a physical fault: both directions of the
	// pair change state, each on its owning domain's engine.
	down := t.Action == LinkDown
	ri := net.LinkIndex(reverseName(t.Link))
	ends := []int{fi}
	if ri >= 0 {
		ends = append(ends, ri)
	}
	for _, li := range ends {
		l := net.Links[li]
		eng := net.Engines[l.Dom]
		pt, first, ep := l.Port, li == fi, t.Epoch
		eng.Schedule(t.At, func() {
			pt.SetDown(down)
			if first { // trace once, under the forward link's index
				kind := trace.FaultLinkUp
				if down {
					kind = trace.FaultLinkDown
				}
				emitFault(eng, kind, fi, -1, ep, 0, 0)
			}
		})
	}

	// On a leaf-spine fabric the routers must also re-resolve ECMP: every
	// domain gets the health update at the same timestamp, applied by its
	// own engine to its own view.
	if fwd.FabricLeaf >= 0 && fwd.FabricSpine >= 0 {
		scheduleFabricUpdate(net, t.At, fabricUpdate{epoch: t.Epoch,
			leaf: int(fwd.FabricLeaf), spine: int(fwd.FabricSpine), sw: -1, up: !down})
	}
	return nil
}

func scheduleSwitch(net *topology.Net, t Transition) error {
	idx := net.SwitchIndex(t.Switch)
	if idx < 0 {
		return fmt.Errorf("fault: unknown switch %q", t.Switch)
	}
	sw := net.Switches[idx]
	dom := net.SwitchDomain(idx)
	eng := net.Engines[dom]
	fail := t.Action == SwitchFail
	kind := trace.FaultSwitchRecover
	if fail {
		kind = trace.FaultSwitchFail
	}
	// The switch's own transmit ports are all owned by its domain: a
	// failed switch loses its buffers and stops transmitting. Neighbors'
	// ports toward it stay up — their packets arrive and blackhole, the
	// same asymmetry a real dead switch shows.
	ports := make([]*topology.Link, 0, 8)
	for i := range net.Links {
		if net.Links[i].From == sw {
			ports = append(ports, &net.Links[i])
		}
	}
	ep := t.Epoch
	eng.Schedule(t.At, func() {
		sw.SetFailed(fail)
		for _, l := range ports {
			l.Port.SetDown(fail)
		}
		emitFault(eng, kind, -1, idx, ep, 0, 0)
	})
	if l, s := net.SwitchFabric(idx); l >= 0 || s >= 0 {
		scheduleFabricUpdate(net, t.At, fabricUpdate{epoch: t.Epoch, sw: idx, up: !fail})
	}
	return nil
}

// fabricUpdate is one domain's share of a fabric transition: the health
// change to apply to that domain's view — link (leaf, spine) when sw < 0,
// else switch sw — and the epoch to trace.
type fabricUpdate struct {
	net             *topology.Net
	dom             int
	epoch           uint64
	leaf, spine, sw int
	up              bool
}

// applyFabricUpdate is the event every domain runs for its share of a
// fabric transition; package-level, so scheduling it allocates nothing.
func applyFabricUpdate(a any) {
	u := a.(*fabricUpdate)
	if u.sw >= 0 {
		u.net.ApplySwitchAlive(u.dom, u.sw, u.up)
	} else {
		u.net.ApplyFabricLink(u.dom, u.leaf, u.spine, u.up)
	}
	emitReroute(u.net.Engines[u.dom], u.dom, u.epoch)
}

// scheduleFabricUpdate pre-schedules u at time at on every domain's
// engine, tracing the routing-epoch advance each causes. The shares are
// one slice, so a transition costs one allocation at any domain count.
func scheduleFabricUpdate(net *topology.Net, at sim.Time, u fabricUpdate) {
	shares := make([]fabricUpdate, net.Domains())
	for d := range shares {
		shares[d] = u
		shares[d].net, shares[d].dom = net, d
		net.Engines[d].ScheduleArg(at, applyFabricUpdate, &shares[d])
	}
}
