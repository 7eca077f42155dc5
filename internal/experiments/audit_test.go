package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ecnsharp/internal/sim"
	"ecnsharp/internal/transport"
)

// TestAuditFlows: a run cut by its deadline leaves flows active and passes
// its audit. On the flow count alone, an active flow balances at a
// deadline but not after a drained run, and a completion counted in the
// wrong domain never does; the error names the flows equation.
func TestAuditFlows(t *testing.T) {
	cfg := shapeCfg(TopoLeafSpine, "websearch", 0.6, 60)
	cfg.Scheme = SimECNSharp()
	cfg.Deadline = 300 * sim.Microsecond
	r, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == r.Injected {
		t.Fatal("every flow finished before the deadline; none was left active")
	}

	cfg.defaults()
	net := cfg.newNet(nil)
	table := transport.NewFlowTable(1)
	table.Launch(cfg.Transport, net.Host(0), net.Host(20), 1, 1000, 0, false)
	done, failed := make([]int, net.Domains()), make([]int, net.Domains())
	if err := auditFlows(net, table, done, failed, false); err != nil {
		t.Errorf("one unstarted flow at a deadline: %v", err)
	}
	if err := auditFlows(net, table, done, failed, true); err == nil || !strings.Contains(err.Error(), "flows:") {
		t.Errorf("an active flow after a drained run: audit said %v", err)
	}
	done[net.DomainOfHost(0)+1]++
	if err := auditFlows(net, table, done, failed, false); err == nil || !strings.Contains(err.Error(), "flows:") {
		t.Errorf("a completion counted in another domain: audit said %v", err)
	}
}

// cancelAfter is a context whose Err turns to Canceled after n polls.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestAuditCanceledMidRun: a leaf-spine run canceled between windows, with
// packets queued, on the wire and in handoff buffers, still conserves
// everything; the error is the cancellation alone.
func TestAuditCanceledMidRun(t *testing.T) {
	cfg := shapeCfg(TopoLeafSpine, "websearch", 0.6, 60)
	cfg.Scheme = SimECNSharp()
	r, err := RunContext(&cancelAfter{Context: context.Background(), n: 50}, cfg, nil)
	if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "conservation audit") {
		t.Fatalf("err = %v, want the cancellation alone", err)
	}
	if r.Report.Windows == 0 || r.Report.HandoffMsgs == 0 || r.Completed == r.Injected {
		t.Errorf("report %+v with %d of %d flows done: want a run stopped mid-traffic", r.Report, r.Completed, r.Injected)
	}
}
