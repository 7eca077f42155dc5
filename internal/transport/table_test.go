package transport_test

import (
	"testing"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
)

// TestFlowTableSerialMatchesStartFlow: a FlowTable-launched flow completes
// with the same FCT as the closure-based StartFlow on an identical network,
// records its state in the parallel arrays, and keeps its receiver open
// until CloseAll.
func TestFlowTableSerialMatchesStartFlow(t *testing.T) {
	cfg := transport.DefaultConfig()
	const size = 500_000

	netA := newStar(2, 0, nil)
	engA := netA.Engines[0]
	var legacy *transport.Flow
	transport.StartFlow(engA, cfg, netA.Host(0), netA.Host(1), 1, size, 0,
		func(fl *transport.Flow) { legacy = fl })
	netA.Shard.Run()
	if legacy == nil {
		t.Fatal("legacy flow did not complete")
	}

	netB := newStar(2, 0, nil)
	table := transport.NewFlowTable(1)
	var doneOrder []int
	table.OnDone = func(i int) { doneOrder = append(doneOrder, i) }
	idx := table.Launch(cfg, netB.Host(0), netB.Host(1), 1, size, 0, true)
	netB.Shard.Run()

	if table.Len() != 1 || idx != 0 {
		t.Fatalf("table has %d flows, launch returned index %d", table.Len(), idx)
	}
	if !table.Done[0] {
		t.Fatal("table flow did not complete")
	}
	if table.FCT[0] != legacy.FCT {
		t.Errorf("table FCT %v != StartFlow FCT %v", table.FCT[0], legacy.FCT)
	}
	if table.IDs[0] != 1 || table.Src[0] != 0 || table.Dst[0] != 1 ||
		table.Size[0] != size || table.Start[0] != 0 || !table.Query[0] {
		t.Errorf("table row mismatch: id=%d src=%d dst=%d size=%d start=%v query=%v",
			table.IDs[0], table.Src[0], table.Dst[0], table.Size[0], table.Start[0], table.Query[0])
	}
	if len(doneOrder) != 1 || doneOrder[0] != 0 {
		t.Errorf("OnDone fired with %v, want [0]", doneOrder)
	}
	if !table.Senders[0].Finished() {
		t.Error("sender not finished")
	}

	// The finished flow's receiver stays registered — a late duplicate
	// segment is handled, and ACKed, as a real receiver would — until
	// CloseAll unregisters it.
	dups := func() int64 {
		p := netB.Host(1).AllocPacket()
		p.FlowID, p.Src, p.Dst = 1, 0, 1
		p.Kind, p.PayloadLen = packet.Data, packet.MSS
		netB.Host(1).Receive(p)
		netB.Shard.Run()
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
