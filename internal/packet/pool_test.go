package packet

import "testing"

// TestPoolRecyclesZeroed: a packet mutated through its whole life cycle
// comes back from the pool with every field at its zero value — no stale
// ECN codepoint, timestamp, sequence or payload state survives reuse.
func TestPoolRecyclesZeroed(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	*p = Packet{
		FlowID: 7, Src: 1, Dst: 2, Kind: Ack,
		Seq: 1460, PayloadLen: MSS, AckSeq: 2920, ECE: true,
		ECN: CE, TSVal: 123, TSEcr: 456, Class: 3, EnqueuedAt: 789,
	}
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatalf("pool did not recycle: got %p, want %p", q, p)
	}
	if *q != (Packet{}) {
		t.Fatalf("recycled packet carries stale state: %+v", *q)
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	pl.Put(p)
}

// nowhere is a Sink for tests that only need a packet to be on a link.
type nowhere struct{}

func (nowhere) Receive(*Packet) {}

// TestPoolPutOnLinkPanics: a packet whose Next is set belongs to a pending
// delivery event; releasing it would recycle a packet that is about to
// arrive somewhere.
func TestPoolPutOnLinkPanics(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	p.Next = nowhere{}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Put of a packet with Next set did not panic")
			}
		}()
		pl.Put(p)
	}()
	if pl.Puts != 0 || pl.Free() != 0 {
		t.Errorf("refused packet was pooled anyway: puts %d, free %d", pl.Puts, pl.Free())
	}
	p.Next = nil // delivered
	pl.Put(p)
	if q := pl.Get(); q != p || q.Next != nil {
		t.Errorf("delivered packet did not recycle clean: %p next %v", q, q.Next)
	}
}

// TestPoolNilReceiver: a nil pool degrades to plain allocation so pooling
// can be disabled without changing call sites.
func TestPoolNilReceiver(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil || *p != (Packet{}) {
		t.Fatal("nil pool Get did not allocate a zero packet")
	}
	pl.Put(p) // no-op, must not panic
	pl.Put(nil)
	if pl.Free() != 0 {
		t.Error("nil pool reports free packets")
	}
}

func TestPoolCounters(t *testing.T) {
	pl := &Pool{}
	a, b := pl.Get(), pl.Get()
	pl.Put(a)
	c := pl.Get() // recycles a
	if c != a {
		t.Fatal("expected LIFO recycling")
	}
	pl.Put(b)
	pl.Put(c)
	if pl.Gets != 3 || pl.News != 2 || pl.Puts != 3 {
		t.Errorf("counters = gets %d news %d puts %d, want 3/2/3", pl.Gets, pl.News, pl.Puts)
	}
	if pl.Free() != 2 {
		t.Errorf("Free() = %d, want 2", pl.Free())
	}
}
