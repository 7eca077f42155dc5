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
		Seq: 1460, PayloadLen: MSS, ECE: true,
		ECN: CE, TS: 123, Class: 3, EnqueuedAt: 789,
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

// TestPoolSharedList: handles sharing a free list keep their own counters,
// reuse is LIFO across handles, and a packet already on the list panics
// when put again through any handle of it.
func TestPoolSharedList(t *testing.T) {
	var a, b, c Pool
	b.Share(&a)
	c.Share(&b) // b's list is a's: so is c's
	p, q := a.Get(), b.Get()
	b.Put(p)
	c.Put(q)
	if a.Free() != 2 || b.Free() != 2 || c.Free() != 2 {
		t.Fatalf("free lists %d/%d/%d, want one list of 2", a.Free(), b.Free(), c.Free())
	}
	if got := a.Get(); got != q {
		t.Errorf("a got %p, want %p, the packet c put last", got, q)
	}
	if got := c.Get(); got != p {
		t.Errorf("c got %p, want %p, the packet b put", got, p)
	}
	for _, h := range []struct {
		name string
		pl   *Pool
		want [3]int64
	}{{"a", &a, [3]int64{2, 1, 0}}, {"b", &b, [3]int64{1, 1, 1}}, {"c", &c, [3]int64{1, 0, 1}}} {
		if got := [3]int64{h.pl.Gets, h.pl.News, h.pl.Puts}; got != h.want {
			t.Errorf("%s: gets/news/puts %v, want %v", h.name, got, h.want)
		}
	}
	a.Put(p)
	defer func() {
		if recover() == nil {
			t.Error("a second Put through another handle of the list did not panic")
		}
	}()
	b.Put(p)
}
