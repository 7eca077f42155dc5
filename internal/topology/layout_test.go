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
// topology, the egress, its first service queue and that queue's initial
// ring lie inside the port's block — so does the host, for a NIC — which
// is what makes a forwarding event touch one object.
func TestLayoutPortStateInsideItsBlock(t *testing.T) {
	for name, net := range layoutNets() {
		multiQueue := name == "leafspine/dwrr"
		for _, l := range net.Links {
			block := spanOf(unsafe.Pointer(l.Port), unsafe.Sizeof(portBlock{}))
			eg := l.Port.Egress
			if !spanOf(unsafe.Pointer(eg), unsafe.Sizeof(*eg)).inside(block) {
				t.Fatalf("%s %s: egress at %p is outside the port's block at %p", name, l.Name(), eg, l.Port)
			}
			if multiQueue && l.From != nil {
				continue
			}
			queues := reflect.ValueOf(eg).Elem().FieldByName("queues")
			fifo := span{queues.Pointer(), queues.Pointer() + unsafe.Sizeof(queue.FIFO{})}
			ring := queues.Index(0).FieldByName("buf")
			ringSpan := span{ring.Pointer(), ring.Pointer() + uintptr(ring.Len())*unsafe.Sizeof(uintptr(0))}
			if queues.Len() != 1 || !fifo.inside(block) || ring.Len() == 0 || !ringSpan.inside(block) {
				t.Fatalf("%s %s: queue %v or its %d-slot ring %v is outside the port's block %v",
					name, l.Name(), fifo, ring.Len(), ringSpan, block)
			}
		}
		for id, h := range net.Hosts {
			block := spanOf(unsafe.Pointer(h), unsafe.Sizeof(hostBlock{}))
			for what, pt := range map[string]*device.Port{"NIC": h.NIC, "access port": net.EgressTo(id)} {
				if !spanOf(unsafe.Pointer(pt), unsafe.Sizeof(portBlock{})).inside(block) {
					t.Fatalf("%s host %d: %s at %p is outside the host's block at %p", name, id, what, pt, h)
				}
			}
		}
	}
}

// TestLayoutDomainsShareNoCacheLine: domains run on different
// workers, so a 64-byte line holding state of two of them would bounce
// between cores on every event. Slabs are per domain and at least 512
// bytes, which the allocator places on lines of their own; packet pools
// are 64-byte objects allocated one at a time, so each has a line to
// itself, on 386 as on amd64.
func TestLayoutDomainsShareNoCacheLine(t *testing.T) {
	const line = 64
	for name, net := range layoutNets() {
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
			claim(spanOf(unsafe.Pointer(l.Port), unsafe.Sizeof(portBlock{})), int(l.Dom), l.Name())
		}
		for id, h := range net.Hosts {
			claim(spanOf(unsafe.Pointer(h), unsafe.Sizeof(hostBlock{})), net.DomainOfHost(id), h.Name())
		}
		for d, pl := range net.PacketPools {
			claim(spanOf(unsafe.Pointer(pl), unsafe.Sizeof(*pl)), d, "packet pool")
		}
	}
}

// TestLayoutBlockSizes pins the two block sizes and the census record to the
// numbers DESIGN.md gives: a field added to Port, Egress, FIFO, Host or Link
// grows every port of a 100k-host fabric, and should be a decision.
func TestLayoutBlockSizes(t *testing.T) {
	if got := unsafe.Sizeof(portBlock{}); got != 496 {
		t.Errorf("portBlock is %d bytes, DESIGN.md says 496", got)
	}
	if got := unsafe.Sizeof(hostBlock{}); got != 1248 {
		t.Errorf("hostBlock is %d bytes, DESIGN.md says 1248", got)
	}
	if got := unsafe.Sizeof(Link{}); got != 32 {
		t.Errorf("Link is %d bytes, DESIGN.md says 32", got)
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
	if got := net.Host(1).RxPackets; got != 2*packets {
		t.Errorf("host 1 received %d packets, want %d", got, 2*packets)
	}
}
