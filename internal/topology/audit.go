package topology

import (
	"fmt"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
)

// flow is a count of packets and of their wire bytes.
type flow struct{ pkts, bytes int64 }

func (f *flow) add(pkts, bytes int64) { f.pkts += pkts; f.bytes += bytes }

// ledger is one domain's conservation accounts at the end of a run. Every
// field is measured on its own — counted where the packet went, or found
// where it sits — so that no equation holds by construction.
type ledger struct {
	// Bytes the domain's hosts sent and received, its queues and fault
	// logic dropped, and its switches blackholed.
	sent, delivered, dropped, blackholed int64
	// What cut links brought in and carried away, and what is still in the
	// domain: queued, on a transmitter, or sitting out a delay (a link's
	// propagation, a flow's host delay).
	arrived, departed, held flow
	// gets and puts count the domain's packet pool.
	gets, puts int64
	// marks counts the marks its queues applied, kinds the same marks by
	// the kind they were attributed to.
	marks, kinds int64
	// handTo counts the handoff messages sent to the domain, handIn those
	// injected into it.
	handTo, handIn uint64
}

func (l *ledger) add(o *ledger) {
	l.sent += o.sent
	l.delivered += o.delivered
	l.dropped += o.dropped
	l.blackholed += o.blackholed
	l.arrived.add(o.arrived.pkts, o.arrived.bytes)
	l.departed.add(o.departed.pkts, o.departed.bytes)
	l.held.add(o.held.pkts, o.held.bytes)
	l.gets += o.gets
	l.puts += o.puts
	l.marks += o.marks
	l.kinds += o.kinds
	l.handTo += o.handTo
	l.handIn += o.handIn
}

// check returns an error naming the first equation l does not balance.
func (l *ledger) check(pooled bool) error {
	if l.handTo != l.handIn {
		return fmt.Errorf("handoffs: %d sent, %d delivered", l.handTo, l.handIn)
	}
	if l.kinds != l.marks {
		return fmt.Errorf("marks: %d marks by kind, %d marks applied", l.kinds, l.marks)
	}
	if pooled && l.gets+l.arrived.pkts != l.puts+l.departed.pkts+l.held.pkts {
		return fmt.Errorf("pool: got %d + arrived %d != put %d + departed %d + in flight %d",
			l.gets, l.arrived.pkts, l.puts, l.departed.pkts, l.held.pkts)
	}
	if in, out := l.sent+l.arrived.bytes, l.delivered+l.dropped+l.blackholed+l.departed.bytes+l.held.bytes; in != out {
		return fmt.Errorf("bytes: sent %d + arrived %d != delivered %d + dropped %d + blackholed %d + departed %d + in flight %d",
			l.sent, l.arrived.bytes, l.delivered, l.dropped, l.blackholed, l.departed.bytes, l.held.bytes)
	}
	return nil
}

// Audit checks, once a run has returned, that the network conserved what
// it carries, domain by domain and summed over domains, and returns an
// error naming the first equation that does not balance:
//
//   - handoffs: every handoff message sent to a domain was delivered to it;
//   - marks: the marks attributed to each kind sum to the marks applied;
//   - pool: packets got from the pool + arrived over cut links = packets
//     put back + departed over cut links + in flight, that is Get = Put +
//     outstanding (not checked when pooling is off);
//   - bytes: bytes sent + arrived = bytes delivered, dropped, blackholed,
//     departed and in flight;
//   - pool lists, summed over the worker groups' free lists: packets
//     allocated (news) = packets on free lists + outstanding (gets − puts)
//     (not checked when pooling is off).
//
// It must run on the goroutine that ran the network, between runs.
func (n *Net) Audit() error {
	doms := make([]ledger, n.Domains())
	out, to, in := n.Shard.HandoffTotals()
	for d := range doms {
		l := &doms[d]
		l.departed.pkts, l.arrived.pkts = int64(out[d]), int64(in[d])
		l.handTo, l.handIn = to[d], in[d]
		if pl := n.PacketPools[d]; pl != nil {
			l.gets, l.puts = pl.Gets, pl.Puts
		}
		n.Engines[d].EachArg(func(arg any) {
			if p, ok := arg.(*packet.Packet); ok {
				l.held.add(1, int64(p.Size()))
			}
		})
	}
	for d := range n.tallies {
		l, t := &doms[d], &n.tallies[d]
		l.sent, l.delivered = t.hosts.TxBytes, t.hosts.RxBytes
		for _, q := range [...]*queue.Tally{&t.switches, &t.nics} {
			l.dropped += q.DropBytes + q.FaultDropBytes
			l.marks += q.EnqMarks + q.DeqMarks
			for _, k := range q.MarkKinds {
				l.kinds += k
			}
		}
	}
	for i, sw := range n.Switches {
		doms[n.switchDoms[i]].blackholed += sw.BlackholedBytes
	}
	for i := range n.Links {
		doms[n.Links[i].Dom].held.add(n.Links[i].Port.Held())
	}
	for _, b := range n.Boundaries {
		doms[b.SrcDom].departed.bytes += b.Cut.TxBytes
		doms[b.DstDom].arrived.bytes += b.Cut.TxBytes
	}

	pooled := n.PacketPools[0] != nil
	var sum ledger
	for d := range doms {
		if err := doms[d].check(pooled); err != nil {
			return fmt.Errorf("conservation audit: domain %d: %w", d, err)
		}
		sum.add(&doms[d])
	}
	if err := sum.check(pooled); err != nil {
		return fmt.Errorf("conservation audit: all domains: %w", err)
	}
	if pooled {
		var news, free int64
		for _, pl := range n.PacketPools {
			news += pl.News
		}
		for g := range n.Shard.Workers() {
			free += int64(n.PacketPools[g].Free()) // group g's list is its first domain's
		}
		if out := sum.gets - sum.puts; news != free+out {
			return fmt.Errorf("conservation audit: pool lists: allocated %d != on free lists %d + outstanding %d", news, free, out)
		}
	}
	return nil
}
