package topology

import (
	"math/rand"
	"reflect"
	"testing"

	"ecnsharp/internal/sim"
)

// TestPartitionLeafSpineProperties: on randomized leaf-spine topologies,
// the partitioner (a) never separates a host from its leaf switch — the
// host's engine is its leaf domain's engine, and its last-hop egress port
// is owned by the same domain — (b) computes a lookahead equal to the
// true minimum propagation delay over the cross-domain links the wiring
// actually creates, and (c) returns the same partition at any Shards.
func TestPartitionLeafSpineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		spines := 1 + rng.Intn(5)
		leaves := 1 + rng.Intn(6)
		hpl := 1 + rng.Intn(5)
		prop := sim.Time(1+rng.Intn(5000)) * sim.Nanosecond
		shards := rng.Intn(9)
		opts := Options{
			Link:   LinkParams{RateBps: TenGbps, PropDelay: prop},
			Shards: shards,
		}

		part := PartitionLeafSpine(spines, leaves, hpl, opts)
		for _, w := range []int{0, 1, 4} {
			o := opts
			o.Shards = w
			if other := PartitionLeafSpine(spines, leaves, hpl, o); !reflect.DeepEqual(other, part) {
				t.Fatalf("dims (%d,%d,%d): shards %d and %d partition differently", spines, leaves, hpl, w, shards)
			}
		}
		if part.Domains != leaves+spines {
			t.Fatalf("dims (%d,%d,%d): Domains = %d, want %d", spines, leaves, hpl, part.Domains, leaves+spines)
		}
		for id, dom := range part.HostDom {
			if dom != id/hpl {
				t.Fatalf("dims (%d,%d,%d): host %d in domain %d, want leaf %d", spines, leaves, hpl, id, dom, id/hpl)
			}
		}

		net := NewLeafSpine(spines, leaves, hpl, opts)
		if net.Domains() != part.Domains {
			t.Fatalf("net has %d domains, partition says %d", net.Domains(), part.Domains)
		}
		// (a) host never split from its leaf.
		for id, h := range net.Hosts {
			dom := net.DomainOfHost(id)
			if h.Engine() != net.Engines[dom] {
				t.Fatalf("host %d runs on a different engine than its domain %d", id, dom)
			}
			if h.Engine() != net.EngineOf(id) {
				t.Fatalf("EngineOf(%d) disagrees with the host's engine", id)
			}
		}
		for i, p := range net.SwitchPorts {
			// The last-hop port feeding a host must be owned by the
			// host's own domain (it is a leaf port).
			for id := range net.Hosts {
				if net.hostPorts[id] == p && net.portDoms[i] != net.DomainOfHost(id) {
					t.Fatalf("last-hop port of host %d owned by domain %d, want %d", id, net.portDoms[i], net.DomainOfHost(id))
				}
			}
		}
		// (b) lookahead equals the true min cut-link delay.
		if len(net.Boundaries) != part.CutLinks {
			t.Fatalf("wiring created %d boundaries, partition predicted %d", len(net.Boundaries), part.CutLinks)
		}
		if len(net.Boundaries) != 2*leaves*spines {
			t.Fatalf("boundaries = %d, want %d", len(net.Boundaries), 2*leaves*spines)
		}
		minCut := sim.MaxTime
		for _, b := range net.Boundaries {
			if b.Prop < minCut {
				minCut = b.Prop
			}
			if b.SrcDom == b.DstDom {
				t.Fatalf("boundary %+v is not cross-domain", b)
			}
		}
		if part.Lookahead != minCut || minCut != prop {
			t.Fatalf("partition lookahead %v, true min cut delay %v, link delay %v: want all equal",
				part.Lookahead, minCut, prop)
		}
		if net.Lookahead != part.Lookahead || net.Shard.Lookahead() != part.Lookahead {
			t.Fatalf("net/engine lookahead (%v, %v) disagree with partition %v",
				net.Lookahead, net.Shard.Lookahead(), part.Lookahead)
		}
	}
}

// TestPartitionDumbbell: both sides become domains, cut on the bottleneck
// in each direction with the link delay as lookahead, at any Shards.
func TestPartitionDumbbell(t *testing.T) {
	for k, shards := range []int{0, 1, 4} {
		prop := sim.Time(1+2*k) * sim.Microsecond
		opts := Options{
			Link:   LinkParams{RateBps: TenGbps, PropDelay: prop},
			Shards: shards,
		}
		part := PartitionDumbbell(4, opts)
		if part.Domains != 2 || part.CutLinks != 2 || part.Lookahead != prop {
			t.Fatalf("shards=%d: unexpected partition %+v", shards, part)
		}
		net := NewDumbbell(4, opts)
		if len(net.Boundaries) != 2 || net.Lookahead != prop {
			t.Fatalf("shards=%d: boundaries = %d, lookahead %v; want 2 and the link delay %v",
				shards, len(net.Boundaries), net.Lookahead, prop)
		}
		for i := 0; i < 4; i++ {
			if net.DomainOfHost(i) != 0 || net.DomainOfHost(4+i) != 1 {
				t.Fatalf("shards=%d: host domains wrong: %d->%d, %d->%d", shards, i, net.DomainOfHost(i), 4+i, net.DomainOfHost(4+i))
			}
		}
	}
}

// TestPartitionStarSingleDomain: a star cannot be cut; sharded
// construction still works (one domain, whatever the worker request).
func TestPartitionStarSingleDomain(t *testing.T) {
	opts := Options{Link: LinkParams{RateBps: TenGbps, PropDelay: sim.Microsecond}, Shards: 4}
	part := PartitionStar(8, opts)
	if part.Domains != 1 || part.CutLinks != 0 {
		t.Fatalf("unexpected star partition %+v", part)
	}
	net := NewStar(8, opts)
	if net.Domains() != 1 || len(net.Boundaries) != 0 {
		t.Fatalf("star built %d domains, %d boundaries", net.Domains(), len(net.Boundaries))
	}
	if net.Shard.Workers() != 1 {
		t.Fatal("single-domain sharded star should clamp to one worker")
	}
}
