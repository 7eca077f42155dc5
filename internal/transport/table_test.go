package transport_test

import (
	"math"
	"testing"

	"ecnsharp/internal/device"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
)

// TestFlowTableWindowFlow: a window flow launched through the table
// finishes its Sender and keeps the table's bookkeeping (checkOneFlow).
func TestFlowTableWindowFlow(t *testing.T) {
	table, net, onDone := launchOne(transport.DefaultConfig())
	if len(table.Senders) != 1 || !table.Senders[0].Finished() || table.Senders[0].Rate() != 0 {
		t.Errorf("window flow: Senders = %v", table.Senders)
	}
	checkOneFlow(t, table, net, onDone)
}

// TestFlowTableRateFlow: a flow whose Config carries DCQCN parameters runs
// its Sender in rate mode, in the same index-aligned Senders slice and
// with the same bookkeeping as a window flow (checkOneFlow).
func TestFlowTableRateFlow(t *testing.T) {
	table, net, onDone := launchOne(rateConfig(transport.DefaultDCQCNConfig()))
	if len(table.Senders) != table.Len() {
		t.Fatalf("%d senders for %d flows", len(table.Senders), table.Len())
	}
	for i, s := range table.Senders {
		if s == nil {
			t.Fatalf("Senders[%d] is nil", i)
		}
	}
	if s := table.Senders[0]; !s.Finished() || s.Rate() <= 0 || s.Stats.SentPackets == 0 {
		t.Errorf("rate flow: finished=%v rate=%v sent=%d", s.Finished(), s.Rate(), s.Stats.SentPackets)
	}
	checkOneFlow(t, table, net, onDone)
}

// TestFlowPanicsOnSelfLoop: a rate flow with identical endpoints is
// refused as loudly as a window one (TestFlowTableRejectsSelfFlow).
func TestFlowPanicsOnSelfLoop(t *testing.T) {
	net := newStar(2, 0, nil)
	defer func() {
		if recover() == nil {
			t.Error("self-loop rate flow did not panic")
		}
	}()
	launch(rateConfig(transport.DefaultDCQCNConfig()), net.Host(0), net.Host(0), 1, 10, 0)
}

const oneFlowSize = 500_000

// launchOne runs one query flow of oneFlowSize bytes from host 0 to host 1
// of a 2-host star through a fresh table, and returns the table, the
// network and the indices OnDone was called with.
func launchOne(cfg transport.Config) (*transport.FlowTable, *topology.Net, []int) {
	net := newStar(2, 0, nil)
	table := transport.NewFlowTable(1)
	var onDone []int
	table.OnDone = func(i int) { onDone = append(onDone, i) }
	table.Launch(cfg, net.Host(0), net.Host(1), 1, oneFlowSize, 0, true)
	net.Shard.Run()
	return table, net, onDone
}

// checkOneFlow checks launchOne's outcome: every byte delivered, the row
// recorded (Done, FCT, endpoints, size, start, query), OnDone called once
// with index 0, and the finished flow's receiver still registered — a late
// duplicate segment is handled, and ACKed, as a real receiver would —
// until CloseAll unregisters it.
func checkOneFlow(t *testing.T, table *transport.FlowTable, net *topology.Net, onDone []int) {
	t.Helper()
	if table.Len() != 1 || !table.Done[0] || table.FCT[0] <= 0 {
		t.Fatalf("table has %d flows, done=%v fct=%v", table.Len(), table.Done[0], table.FCT[0])
	}
	if got := table.Receivers[0].BytesInOrder; got != oneFlowSize {
		t.Errorf("delivered %d bytes, want %d", got, oneFlowSize)
	}
	if table.IDs[0] != 1 || table.Src[0] != 0 || table.Dst[0] != 1 ||
		table.Size[0] != oneFlowSize || table.Start[0] != 0 || !table.Query[0] || table.Failed[0] {
		t.Errorf("table row mismatch: id=%d src=%d dst=%d size=%d start=%v query=%v failed=%v",
			table.IDs[0], table.Src[0], table.Dst[0], table.Size[0], table.Start[0], table.Query[0], table.Failed[0])
	}
	if len(onDone) != 1 || onDone[0] != 0 {
		t.Errorf("OnDone fired with %v, want [0]", onDone)
	}
	dups := func() int64 {
		p := net.Host(1).AllocPacket()
		p.FlowID, p.Src, p.Dst = 1, 0, 1
		p.Kind, p.PayloadLen = packet.Data, packet.MSS
		net.Host(1).Receive(p)
		net.Shard.Run()
		return table.Receivers[0].DupPackets
	}
	if got := dups(); got != 1 {
		t.Errorf("finished flow's receiver counted %d duplicates of a late segment, want 1", got)
	}
	table.CloseAll()
	if got := dups(); got != 1 {
		t.Errorf("after CloseAll the receiver counted %d duplicates, want it closed at 1", got)
	}
}

// TestFlowTableShardedEndpoints: under a sharded leaf-spine, each endpoint
// lives on its own host's domain engine and cross-domain flows still
// complete; CloseAll tears down receivers after the drain.
func TestFlowTableShardedEndpoints(t *testing.T) {
	opts := topology.Options{
		Link:   topology.LinkParams{RateBps: topology.TenGbps, PropDelay: 2 * sim.Microsecond},
		Shards: 2,
	}
	net := topology.NewLeafSpine(2, 2, 2, opts)
	cfg := transport.DefaultConfig()
	table := transport.NewFlowTable(4)

	// Two cross-leaf flows and one intra-leaf flow.
	pairs := [][2]int{{0, 3}, {2, 1}, {0, 1}}
	for i, pr := range pairs {
		table.Launch(cfg, net.Host(pr[0]), net.Host(pr[1]), uint64(i+1), 200_000,
			sim.Time(i)*10*sim.Microsecond, false)
	}
	for i, pr := range pairs {
		if got := table.Senders[i].Engine(); got != net.EngineOf(pr[0]) {
			t.Errorf("flow %d sender on wrong engine (src host %d)", i, pr[0])
		}
		if got := table.Receivers[i].Engine(); got != net.EngineOf(pr[1]) {
			t.Errorf("flow %d receiver on wrong engine (dst host %d)", i, pr[1])
		}
	}
	net.Shard.Run()
	table.CloseAll()
	table.CloseAll() // closing twice must be harmless

	for i := range pairs {
		if !table.Done[i] || table.FCT[i] <= 0 {
			t.Errorf("flow %d: done=%v fct=%v", i, table.Done[i], table.FCT[i])
		}
	}
}

// TestFlowTableRejectsSelfFlow: identical endpoints are a configuration
// bug, refused loudly.
func TestFlowTableRejectsSelfFlow(t *testing.T) {
	net := newStar(2, 0, nil)
	table := transport.NewFlowTable(1)
	defer func() {
		if recover() == nil {
			t.Error("self-flow did not panic")
		}
	}()
	table.Launch(transport.DefaultConfig(), net.Host(0), net.Host(0), 1, 1000, 0, false)
}

// TestFlowTableRejectsWideFlowID: a packet carries a 32-bit flow id, so
// the table refuses an id that would not survive the narrowing, and takes
// the widest one that does.
func TestFlowTableRejectsWideFlowID(t *testing.T) {
	net := newStar(2, 0, nil)
	table := transport.NewFlowTable(2)
	table.Launch(transport.DefaultConfig(), net.Host(0), net.Host(1), math.MaxUint32, 1000, 0, false)
	if table.IDs[0] != math.MaxUint32 {
		t.Errorf("flow id %d stored as %d", uint64(math.MaxUint32), table.IDs[0])
	}
	defer func() {
		if recover() == nil {
			t.Error("flow id above MaxUint32 did not panic")
		}
	}()
	table.Launch(transport.DefaultConfig(), net.Host(1), net.Host(0), math.MaxUint32+1, 1000, 0, false)
}

// TestFlowTableSharesConfig: flows launched with one configuration share
// one copy of it whatever their class, and each still stamps its own class
// — clamped to a byte — on its data packets and ACKs.
func TestFlowTableSharesConfig(t *testing.T) {
	net := newStar(3, 0, nil)
	var got [2][]uint8
	for h := 1; h <= 2; h++ {
		nic := net.Host(h).NIC
		tap := device.NewTap(net.Engines[0], nic.Dst.(device.Node))
		tap.Drop = func(p *packet.Packet) bool {
			got[p.Kind] = append(got[p.Kind], p.Class)
			return false
		}
		nic.Dst = tap
	}
	table := transport.NewFlowTable(2)
	for i, class := range []int{-3, 300} {
		cfg := transport.DefaultConfig()
		cfg.Class = class
		table.Launch(cfg, net.Host(1+i), net.Host(2-i), uint64(i+1), 2*packet.MSS, 0, false)
	}
	net.Shard.Run()
	if !table.Done[0] || !table.Done[1] {
		t.Fatal("flows did not complete")
	}
	if !transport.SameConfig(table.Senders[0], table.Senders[1], table.Receivers[0], table.Receivers[1]) {
		t.Error("the endpoints of two flows launched with one configuration hold different copies")
	}
	for kind, classes := range got {
		if len(classes) == 0 {
			t.Fatalf("no %v packets seen", packet.Kind(kind))
		}
		for _, c := range classes {
			if c != 0 && c != packet.MaxClass {
				t.Errorf("%v packet of class %d, want 0 (class -3) or %d (class 300)", packet.Kind(kind), c, packet.MaxClass)
			}
		}
	}
}
