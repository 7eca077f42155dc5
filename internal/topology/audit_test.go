package topology

import (
	"strings"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
)

// auditedRun runs flows across a marking leaf-spine, stopped at deadline
// (sim.MaxTime: drained), and returns the network. Three workers make
// three packet free lists.
func auditedRun(deadline sim.Time) *Net {
	o := opts()
	o.NewAQM = func(int) aqm.AQM { return aqm.NewTCN(20 * sim.Microsecond) }
	o.Shards = 3
	net := NewLeafSpine(2, 3, 4, o)
	table := transport.NewFlowTable(12)
	for i := 0; i < 12; i++ {
		table.Launch(transport.DefaultConfig(), net.Host(i), net.Host((i+5)%12), uint64(i+1), 200_000, 0, false)
	}
	net.Shard.RunUntil(deadline)
	table.CloseAll()
	return net
}

// TestAuditBalances: a drained run and one stopped with packets on every
// kind of hop — queued, on transmitters, propagating, handed across cut
// links — both balance every equation.
func TestAuditBalances(t *testing.T) {
	for _, deadline := range []sim.Time{sim.MaxTime, 40 * sim.Microsecond} {
		net := auditedRun(deadline)
		if err := net.Audit(); err != nil {
			t.Errorf("deadline %v: %v", deadline, err)
		}
		if deadline < sim.MaxTime && net.TotalMarks() == 0 {
			t.Errorf("deadline %v: nothing marked, so the marks equation was not exercised", deadline)
		}
	}
}

// TestAuditNamesTheEquation: each counter an equation reads, doctored by
// one, fails the audit with that equation's name: a domain's host, NIC and
// switch-port tallies, a cut link's departed bytes, the packet pools.
func TestAuditNamesTheEquation(t *testing.T) {
	for _, c := range []struct {
		equation string
		doctor   func(*Net)
	}{
		{"bytes", func(n *Net) { n.Host(3).Tally.RxBytes++ }},
		{"bytes", func(n *Net) { n.Host(3).Tally.TxBytes++ }},
		{"bytes", func(n *Net) { n.Links[0].Port.Egress.Settings().Tally.FaultDropBytes++ }},
		{"bytes", func(n *Net) { n.Boundaries[0].Cut.TxBytes++ }},
		{"pool", func(n *Net) { n.PacketPools[n.DomainOfHost(0)].Puts++ }},
		{"pool lists", func(n *Net) { n.PacketPools[n.DomainOfHost(0)].News++ }},
		{"marks", func(n *Net) { n.SwitchPorts[0].Egress.Settings().Tally.MarkKinds[trace.MarkPersistent]++ }},
	} {
		net := auditedRun(40 * sim.Microsecond)
		c.doctor(net)
		err := net.Audit()
		if err == nil || !strings.Contains(err.Error(), c.equation+":") {
			t.Errorf("doctored %s counter: audit said %v", c.equation, err)
		}
	}
}
