package topology

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
)

// These tests pin the memory layout DESIGN.md "Hot path & memory
// discipline" describes under "Co-located state": one block per port and
// per host, allocated in per-domain slabs.

// layoutOpts is the testbed ECN♯ configuration on 10 Gbps links.
func layoutOpts() Options {
	return Options{
		Link: LinkParams{RateBps: TenGbps, PropDelay: sim.Microsecond, BufferBytes: 600 * 1500},
		NewAQM: func(int) aqm.AQM {
			return aqm.MustNewECNSharp(core.Params{
				InsTarget:   200 * sim.Microsecond,
				PstTarget:   85 * sim.Microsecond,
				PstInterval: 200 * sim.Microsecond,
			})
		},
	}
}

// layoutNets builds one network of every topology, and a leaf-spine with
// four worker groups.
func layoutNets() map[string]*Net {
	groups := layoutOpts()
	groups.Shards = 4
	return map[string]*Net{
		"star":             NewStar(9, layoutOpts()),
		"leafspine":        NewLeafSpine(3, 5, 7, layoutOpts()),
		"leafspine/dwrr":   NewLeafSpine(2, 2, 2, dwrrOpts()),
		"leafspine/groups": NewLeafSpine(3, 5, 7, groups),
		// Twelve domains: a slice of their pool handles would exceed
		// 512 bytes and start 8 bytes past a line, behind a malloc header.
		"leafspine/wide": NewLeafSpine(4, 8, 2, layoutOpts()),
		// One spine: each leaf's slab of uplinks holds a single block.
		"leafspine/one-spine": NewLeafSpine(1, 4, 2, layoutOpts()),
	}
}

// dwrrOpts is the Figure 13 port: three service queues, whose FIFOs are a
// heap slice and so lie outside the block.
func dwrrOpts() Options {
	o := layoutOpts()
	o.Weights = []int{2, 1, 1}
	return o
}

// TestLayoutMallocsPerHost: building a fabric costs a bounded number of heap
// objects per host — the block slabs amortize to nothing, what is left is
// the AQM of the host-facing port (the census stores no names and builds
// no map). The one-object-per-component layout cost 29.45 on the
// leaf-spine case.
func TestLayoutMallocsPerHost(t *testing.T) {
	const bound = 8
	for _, c := range []struct {
		name  string
		build func() *Net
	}{
		{"leafspine", func() *Net { return NewLeafSpine(8, 64, 160, layoutOpts()) }},
		{"star", func() *Net { return NewStar(2048, layoutOpts()) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net := c.build()
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / float64(len(net.Hosts))
		t.Logf("%s: %.2f mallocs/host, %.0f bytes/host over %d hosts", c.name, per,
			float64(after.TotalAlloc-before.TotalAlloc)/float64(len(net.Hosts)), len(net.Hosts))
		if per > bound {
			t.Errorf("%s: %.2f mallocs per host, want <= %d", c.name, per, bound)
		}
	}
}

// span is a half-open address range.
type span struct{ lo, hi uintptr }

func (s span) inside(outer span) bool { return outer.lo <= s.lo && s.hi <= outer.hi }

func spanOf(p unsafe.Pointer, size uintptr) span { return span{uintptr(p), uintptr(p) + size} }

// TestLayoutPortStateInsideItsBlock: for every transmit port of every
// topology, the egress's service queue — its head and tail words, all it
// holds of its packets — and AQM slot lie inside the port, and so does the
// host, for a NIC: a forwarding event touches one object besides the
// packets, the AQM and the settings the port's switch shares. Only a DWRR
// port holds further queues.
func TestLayoutPortStateInsideItsBlock(t *testing.T) {
	for name, net := range layoutNets() {
		multiQueue := name == "leafspine/dwrr"
		for _, l := range net.Links {
			block := spanOf(unsafe.Pointer(l.Port), unsafe.Sizeof(*l.Port))
			eg := reflect.ValueOf(&l.Port.Egress).Elem()
			if classes := !eg.FieldByName("classes").IsNil(); classes != (multiQueue && l.From != nil) {
				t.Fatalf("%s %s: holds further queues %v, want them on DWRR switch ports only", name, l.Name(), classes)
			}
			q := eg.FieldByName("fifo").Index(0)
			for _, w := range []reflect.Value{q.FieldByName("head"), q.FieldByName("tail"), eg.FieldByName("aqm")} {
				if s := spanOf(unsafe.Pointer(w.UnsafeAddr()), w.Type().Size()); !s.inside(block) {
					t.Fatalf("%s %s: the egress's %v at %v is outside the port %v", name, l.Name(), w.Type(), s, block)
				}
			}
		}
		for id, h := range net.Hosts {
			block := spanOf(unsafe.Pointer(h), unsafe.Sizeof(hostBlock{}))
			for what, pt := range map[string]*device.Port{"NIC": h.NIC, "access port": net.EgressTo(id)} {
				if !spanOf(unsafe.Pointer(pt), unsafe.Sizeof(*pt)).inside(block) {
					t.Fatalf("%s host %d: %s at %p is outside the host's block at %p", name, id, what, pt, h)
				}
			}
		}
	}
}

// nopFlow is a flow handler that does nothing: the layout tests register
// one per host so that every domain's flow demux holds its arrays.
type nopFlow struct{}

func (nopFlow) HandlePacket(sim.Time, *packet.Packet) {}

// demuxArrays returns the spans of a flow demux's key and handler arrays
// (empty spans while it holds none).
func demuxArrays(d *device.Demux) []span {
	v := reflect.ValueOf(d).Elem()
	var spans []span
	for _, f := range []string{"keys", "handlers"} {
		a := v.FieldByName(f)
		spans = append(spans, spanOf(a.UnsafePointer(), uintptr(a.Len())*a.Type().Elem().Size()))
	}
	return spans
}

// TestLayoutDomainsShareNoCacheLine: domains run on different
// workers, so a 64-byte line holding state of two of them would bounce
// between cores on every event. Slabs are per domain and at least 512
// bytes, which the allocator places on lines of their own, cut links'
// byte counts included; packet pools, flow demuxes and the egress settings
// a switch's ports or a domain's NICs share are 64-byte objects allocated
// one at a time, a demux's arrays at least 512 bytes each, and
// tallies whole lines each in a slice that starts a line, so each has its
// lines to itself, on 386 as on amd64.
func TestLayoutDomainsShareNoCacheLine(t *testing.T) {
	const line = 64
	for name, net := range layoutNets() {
		// A flow on every host, as a run has: the demuxes hold arrays.
		for _, h := range net.Hosts {
			h.Register(1, nopFlow{})
		}
		owner := map[uintptr]int{}
		claim := func(s span, dom int, what string) {
			for ln := s.lo / line; ln <= (s.hi-1)/line; ln++ {
				if d, taken := owner[ln]; taken && d != dom {
					t.Fatalf("%s: %s of domain %d shares cache line %#x with domain %d", name, what, dom, ln*line, d)
				}
				owner[ln] = dom
			}
		}
		for _, l := range net.Links {
			claim(spanOf(unsafe.Pointer(l.Port), unsafe.Sizeof(*l.Port)), int(l.Dom), l.Name())
			set := unsafe.Pointer(l.Port.Egress.Settings())
			if size := unsafe.Sizeof(settingsLine{}); size != line || uintptr(set)%line != 0 {
				t.Fatalf("%s: the egress settings of %s are %d bytes at %p, want one line", name, l.Name(), size, set)
			}
			claim(spanOf(set, unsafe.Sizeof(settingsLine{})), int(l.Dom), "egress settings of "+l.Name())
		}
		for _, b := range net.Boundaries {
			claim(spanOf(unsafe.Pointer(b.Cut), unsafe.Sizeof(*b.Cut)), b.SrcDom, "cut of "+b.Port.Dst.(device.Node).Name())
		}
		for id, h := range net.Hosts {
			claim(spanOf(unsafe.Pointer(h), unsafe.Sizeof(hostBlock{})), net.DomainOfHost(id), h.Name())
		}
		for d, pl := range net.PacketPools {
			claim(spanOf(unsafe.Pointer(pl), unsafe.Sizeof(*pl)), d, "packet pool")
		}
		for id, h := range net.Hosts {
			if d := net.DomainOfHost(id); h.Demux != net.demuxes[d] {
				t.Fatalf("%s: %s registers in another demux than its domain %d's", name, h.Name(), d)
			}
		}
		for d, dm := range net.demuxes {
			if size := unsafe.Sizeof(*dm); size != line || uintptr(unsafe.Pointer(dm))%line != 0 {
				t.Fatalf("%s: the flow demux of domain %d is %d bytes at %p, want one line", name, d, size, dm)
			}
			claim(spanOf(unsafe.Pointer(dm), unsafe.Sizeof(*dm)), d, "flow demux")
			for _, a := range demuxArrays(dm) {
				if a.lo == 0 {
					continue // a domain without hosts, a spine: no arrays
				}
				if a.hi-a.lo < 512 {
					t.Fatalf("%s: an array of domain %d's flow demux is %d bytes, want at least 512", name, d, a.hi-a.lo)
				}
				claim(a, d, "flow demux array")
			}
		}
		for d := range net.tallies {
			tl := &net.tallies[d]
			if size := unsafe.Sizeof(*tl); size%line != 0 || uintptr(unsafe.Pointer(tl))%line != 0 {
				t.Fatalf("%s: the tally of domain %d is %d bytes at %p, want whole lines", name, d, size, tl)
			}
			claim(spanOf(unsafe.Pointer(tl), unsafe.Sizeof(*tl)), d, "tally")
		}
	}
}

// TestLayoutBlockSizes pins the block sizes, the census record and the
// domain tally to the numbers DESIGN.md gives, on 64-bit and on 32-bit
// words: a field added to Port, Egress, FIFO, Host or Link grows every port
// of a 100k-host fabric, and should be a decision.
func TestLayoutBlockSizes(t *testing.T) {
	wide := unsafe.Sizeof(uintptr(0)) == 8
	for _, c := range []struct {
		name     string
		got      uintptr
		w64, w32 uintptr
	}{
		{"Egress", unsafe.Sizeof(queue.Egress{}), 72, 40},
		{"Port", unsafe.Sizeof(device.Port{}), 144, 88},
		{"cutBlock", unsafe.Sizeof(cutBlock{}), 160, 100},
		{"hostBlock", unsafe.Sizeof(hostBlock{}), 352, 212},
		{"tally", unsafe.Sizeof(tally{}), 192, 192},
		{"Link", unsafe.Sizeof(Link{}), 32, 24},
	} {
		want, word := c.w64, "64"
		if !wide {
			want, word = c.w32, "32"
		}
		if c.got != want {
			t.Errorf("%s is %d bytes, DESIGN.md says %d on %s-bit words", c.name, c.got, want, word)
		}
	}
}

// pump sends one raw packet from a star's host 0 to host 1 and reschedules
// itself until its budget is spent: a static callback, so the test measures
// the forwarding path alone.
type pump struct {
	net  *Net
	left int
}

func pumpTick(a any) {
	pm := a.(*pump)
	if pm.left == 0 {
		return
	}
	pm.left--
	h := pm.net.Host(0)
	p := h.AllocPacket()
	p.FlowID, p.Src, p.Dst = 7+uint32(pm.left&1), 0, 1 // flow 7 carries an extra delay, flow 8 none
	p.Kind, p.PayloadLen, p.ECN = packet.Data, packet.MSS, packet.ECT
	h.Send(p)
	pm.net.Engines[0].AfterArg(1300*sim.Nanosecond, pumpTick, pm)
}

// TestLayoutForwardingAllocatesNothing: 10^5 packets over the two hops of a
// star (host send, NIC, switch, access port, host receive; every other one
// behind a flow delay) cost 0 allocs per packet once the pool, the event
// arena and the queues are warm. What a run may still allocate is the event
// queue opening a bucket when the clock crosses a power of two: a handful
// of objects per run, not one per packet.
func TestLayoutForwardingAllocatesNothing(t *testing.T) {
	const packets = 100_000
	net := NewStar(2, layoutOpts())
	net.Host(0).SetFlowDelay(7, 3*sim.Microsecond)
	pm := &pump{net: net}
	run := func() {
		pm.left = packets
		net.Engines[0].AfterArg(0, pumpTick, pm)
		net.Shard.Run()
	}
	if allocs := testing.AllocsPerRun(1, run); allocs > packets/1000 {
		t.Errorf("forwarding %d packets allocated %.0f objects, want 0 per packet", packets, allocs)
	}
	// The star's hosts count into one domain tally; only host 1 receives.
	if got := net.Host(1).Tally.RxPackets; got != 2*packets {
		t.Errorf("host 1 received %d packets, want %d", got, 2*packets)
	}
}
