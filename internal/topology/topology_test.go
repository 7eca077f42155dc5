package topology

import (
	"reflect"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/transport"
)

func opts() Options {
	return Options{
		Link: LinkParams{RateBps: TenGbps, PropDelay: sim.Microsecond, BufferBytes: 600 * 1500},
	}
}

func TestStarShape(t *testing.T) {
	n := NewStar(8, opts())
	if len(n.Hosts) != 8 || len(n.Switches) != 1 {
		t.Fatalf("hosts=%d switches=%d", len(n.Hosts), len(n.Switches))
	}
	if len(n.SwitchPorts) != 8 {
		t.Errorf("switch ports = %d, want 8", len(n.SwitchPorts))
	}
	for i := 0; i < 8; i++ {
		if n.Host(i).NIC == nil {
			t.Errorf("host %d has no NIC", i)
		}
		if n.EgressTo(i) == nil {
			t.Errorf("no egress to host %d", i)
		}
	}
}

func TestStarPanicsOnTooFewHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewStar(1, opts())
}

func TestEgressToUnknownHostPanics(t *testing.T) {
	n := NewStar(2, opts())
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	n.EgressTo(99)
}

// endToEnd runs one flow through the topology and checks delivery.
func endToEnd(t *testing.T, n *Net, src, dst int) {
	t.Helper()
	const size = 300_000
	table := transport.NewFlowTable(1)
	table.Launch(transport.DefaultConfig(), n.Host(src), n.Host(dst),
		uint64(src*1000+dst+1), size, n.EngineOf(src).Now(), false)
	n.Shard.Run()
	table.CloseAll()
	if !table.Done[0] {
		t.Fatalf("flow %d->%d incomplete", src, dst)
	}
	if got := table.Receivers[0].BytesInOrder; got != size {
		t.Fatalf("flow %d->%d delivered %d bytes", src, dst, got)
	}
}

func TestStarEndToEnd(t *testing.T) {
	n := NewStar(4, opts())
	endToEnd(t, n, 0, 3)
	endToEnd(t, n, 2, 1)
}

func TestLeafSpineShape(t *testing.T) {
	n := NewLeafSpine(8, 8, 16, opts())
	if len(n.Hosts) != 128 {
		t.Fatalf("hosts = %d, want 128", len(n.Hosts))
	}
	if len(n.Switches) != 16 {
		t.Fatalf("switches = %d, want 16", len(n.Switches))
	}
	// 128 access downlinks + 8*8 uplinks + 8*8 fabric downlinks.
	if len(n.SwitchPorts) != 128+64+64 {
		t.Errorf("switch ports = %d, want 256", len(n.SwitchPorts))
	}
}

func TestLeafSpineEndToEnd(t *testing.T) {
	n := NewLeafSpine(2, 2, 2, opts())
	endToEnd(t, n, 0, 3) // inter-leaf (host 0 on leaf 0, host 3 on leaf 1)
	endToEnd(t, n, 0, 1) // intra-leaf
}

func TestLeafSpineECMPUsesMultipleSpines(t *testing.T) {
	n := NewLeafSpine(4, 2, 4, opts())
	// Many inter-leaf flows: spine switches should all see traffic.
	table := transport.NewFlowTable(32)
	for f := 0; f < 32; f++ {
		src := f % 4       // leaf 0
		dst := 4 + (f % 4) // leaf 1
		table.Launch(transport.DefaultConfig(), n.Host(src), n.Host(dst), uint64(f+1), 20_000, 0, false)
	}
	n.Shard.Run()
	busySpines := 0
	for _, sw := range n.Switches[:4] { // spines are first
		if sw.RxPackets > 0 {
			busySpines++
		}
	}
	if busySpines < 3 {
		t.Errorf("only %d/4 spines carried traffic; ECMP not spreading", busySpines)
	}
}

func TestLeafSpinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewLeafSpine(0, 1, 1, opts())
}

func TestOptionsAQMAndSchedulerAreApplied(t *testing.T) {
	for _, c := range []struct {
		weights []int
		queues  int
	}{{nil, 1}, {[]int{2, 1, 1}, 3}} {
		o := opts()
		o.Weights = c.weights
		aqms := 0
		o.NewAQM = func(q int) aqm.AQM { aqms++; return aqm.NewTCN(100 * sim.Microsecond) }
		n := NewStar(3, o)
		// One AQM instance per queue of each of the 3 switch ports.
		if aqms != 3*c.queues {
			t.Errorf("weights %v: AQM factory called %d times, want %d", c.weights, aqms, 3*c.queues)
		}
		if got := n.EgressTo(0).Egress.NumQueues(); got != c.queues {
			t.Errorf("weights %v: queues = %d, want %d", c.weights, got, c.queues)
		}
	}
}

func TestTotalDropsAndMarks(t *testing.T) {
	o := opts()
	o.Link.BufferBytes = 6 * 1500 // tiny: force drops
	o.NewAQM = func(int) aqm.AQM { return aqm.NewREDInstantBytes(3 * 1500) }
	n := NewStar(4, o)
	table := transport.NewFlowTable(3)
	for i := 0; i < 3; i++ {
		table.Launch(transport.DefaultConfig(), n.Host(i), n.Host(3), uint64(i+1), 400_000, 0, false)
	}
	n.Shard.Run()
	if n.TotalDrops() == 0 {
		t.Error("no drops through a 6-packet buffer")
	}
	if n.TotalMarks() == 0 {
		t.Error("no marks with a 3-packet threshold")
	}
}

// TestCloseAllReleasesDemuxes: a run's teardown releases each domain's flow
// table whole, so closing a domain that holds 320 registered flows (the
// receivers of flows whose senders have not started) allocates nothing —
// emptied one receiver at a time, the table would shrink, allocating, at
// each quarter — and no table holds an array afterwards, nor after a run
// whose flows all finished.
func TestCloseAllReleasesDemuxes(t *testing.T) {
	const hosts, flows = 160, 320
	empty := func(n *Net) bool {
		for _, d := range n.demuxes {
			for _, a := range demuxArrays(d) {
				if a.lo != 0 {
					return false
				}
			}
		}
		return true
	}
	var nets [2]*Net
	var tables [2]*transport.FlowTable
	for i := range nets {
		nets[i], tables[i] = NewStar(hosts, opts()), transport.NewFlowTable(flows)
		for f := range flows {
			src := f % hosts
			tables[i].Launch(transport.DefaultConfig(), nets[i].Host(src), nets[i].Host((src+1+f/hosts)%hosts), uint64(f+1), 1<<20, sim.Second, false)
		}
		if live := reflect.ValueOf(nets[i].demuxes[0]).Elem().FieldByName("n").Int(); live != flows {
			t.Fatalf("the domain holds %d registered flows, want %d", live, flows)
		}
	}
	next := 0
	if allocs := testing.AllocsPerRun(1, func() { tables[next].CloseAll(); next++ }); allocs != 0 {
		t.Errorf("closing a domain of %d flows allocated %.0f objects, want 0", flows, allocs)
	}
	for _, n := range nets {
		if !empty(n) {
			t.Error("a closed domain's flow table still holds its arrays")
		}
	}
	n := NewLeafSpine(2, 2, 2, opts())
	endToEnd(t, n, 0, 3)
	endToEnd(t, n, 1, 2)
	if !empty(n) {
		t.Error("a finished run's flow tables hold arrays")
	}
}
