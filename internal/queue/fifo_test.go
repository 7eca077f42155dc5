package queue

import (
	"testing"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
)

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// nowhere is a Sink for a packet that only has to be on a link.
type nowhere struct{}

func (nowhere) Receive(*packet.Packet) {}

// TestFIFOLinksThroughNext: a FIFO links its packets through their Next
// fields, head to tail, and a packet leaves it with Next cleared.
func TestFIFOLinksThroughNext(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		f := NewFIFO()
		ps := []*packet.Packet{pkt(1500), pkt(100), pkt(700)}
		var bytes int64
		for i, p := range ps {
			f.Push(p)
			bytes += int64(p.Size())
			if f.Len() != i+1 || f.Bytes() != bytes || f.Peek() != ps[0] {
				t.Fatalf("after %d pushes: Len %d Bytes %d Peek %p, want %d, %d, %p", i+1, f.Len(), f.Bytes(), f.Peek(), i+1, bytes, ps[0])
			}
		}
		if ps[0].Next != (*queued)(ps[1]) || ps[1].Next != (*queued)(ps[2]) || ps[2].Next != &end {
			t.Fatal("queued packets do not link head to tail through Next, with the tail's Next the end marker")
		}
		for i, want := range ps {
			if got := f.Pop(); got != want || got.Next != nil {
				t.Fatalf("pop %d: got %p (Next %v), want %p with Next nil", i, got, got.Next, want)
			}
			bytes -= int64(want.Size())
			if f.Len() != len(ps)-i-1 || f.Bytes() != bytes {
				t.Fatalf("after pop %d: Len %d Bytes %d, want %d, %d", i, f.Len(), f.Bytes(), len(ps)-i-1, bytes)
			}
		}
		if f.Peek() != nil || f.Pop() != nil || !f.Empty() {
			t.Fatal("drained FIFO is not empty")
		}
		// An emptied FIFO links afresh.
		f.Push(ps[2])
		f.Push(ps[0])
		if f.Pop() != ps[2] || f.Pop() != ps[0] {
			t.Fatal("FIFO order wrong after draining")
		}
	})
	t.Run("push of a linked packet panics", func(t *testing.T) {
		f := NewFIFO()
		onLink := pkt(100)
		onLink.Next = nowhere{}
		mustPanic(t, "Push of a packet on a link", func() { f.Push(onLink) })
		a, b := pkt(100), pkt(100)
		f.Push(a)
		f.Push(b)
		mustPanic(t, "Push of a packet already queued ahead of another", func() { NewFIFO().Push(a) })
		mustPanic(t, "Push of a queued tail", func() { NewFIFO().Push(b) })
		if f.Len() != 2 || f.Pop() != a || f.Pop() != b {
			t.Fatal("a refused Push changed the queue")
		}
	})
	t.Run("put of a queued packet panics", func(t *testing.T) {
		f := NewFIFO()
		var pl packet.Pool
		a, b := pl.Get(), pl.Get()
		a.PayloadLen, b.PayloadLen = 100, 100
		f.Push(a)
		f.Push(b)
		mustPanic(t, "Put of a queued packet that is not the tail", func() { pl.Put(a) })
		mustPanic(t, "Put of a queued tail", func() { pl.Put(b) })
		if f.Pop() != a || f.Pop() != b {
			t.Fatal("a refused Put changed the queue")
		}
		pl.Put(a)
		pl.Put(b)
		if pl.Puts != 2 {
			t.Fatalf("pool took %d packets back, want 2", pl.Puts)
		}
	})
	t.Run("delivery to a queued packet panics", func(t *testing.T) {
		f := NewFIFO()
		a, b := pkt(100), pkt(100)
		f.Push(a)
		f.Push(b)
		mustPanic(t, "delivery to a queued packet", func() { a.Next.Receive(a) })
		mustPanic(t, "delivery past a queue's tail", func() { b.Next.Receive(b) })
	})
	t.Run("DropAll hands every packet back with Next nil", func(t *testing.T) {
		var pl packet.Pool
		e := NewEgress(nil, 0, nil)
		e.Settings().PacketPool = &pl
		const n = 5
		for range n {
			p := pl.Get()
			p.PayloadLen = 1000
			e.Enqueue(0, p)
		}
		if got := e.DropAll(0); got != n || pl.Puts != n || !e.Empty() {
			t.Fatalf("DropAll lost %d packets, pool took %d back, egress empty %v; want %d, %d, true", got, pl.Puts, e.Empty(), n, n)
		}
		for range n {
			if p := pl.Get(); p.Next != nil {
				t.Fatalf("dropped packet came back from the pool with Next %v", p.Next)
			}
		}
	})
}

// FuzzFIFOOrder drives a one-queue egress and a three-queue DWRR egress with
// pushes, pops and DropAll from the fuzz input, against a slice per service
// queue: each queue must release its packets in push order, with Next
// cleared, and its length and bytes must match the reference throughout.
// Packets cycle through a pool, so a packet that left a queue with Next set
// panics when it is put back or pushed again.
func FuzzFIFOOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 8, 9, 10, 11, 16, 17})
	f.Add([]byte{0, 0, 0, 0, 4, 4, 4, 7, 0, 1, 4, 2, 4})
	f.Add([]byte{3, 2, 1, 0, 255, 254, 253, 252, 4, 5, 6, 4, 4, 4, 4, 15})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, weights := range [][]int{nil, {2, 1, 1}} {
			nq := max(len(weights), 1)
			var pl packet.Pool
			e := NewEgress(weights, 0, nil)
			e.Settings().PacketPool = &pl
			ref := make([][]*packet.Packet, nq)
			var now sim.Time
			for _, op := range ops {
				now += sim.Microsecond
				switch op & 7 {
				case 4, 5: // dequeue
					p := e.Dequeue(now)
					if p == nil {
						for qi, q := range ref {
							if len(q) > 0 {
								t.Fatalf("%d queues: Dequeue returned nil with %d packets in queue %d", nq, len(q), qi)
							}
						}
						continue
					}
					qi := e.classQueue(p)
					if len(ref[qi]) == 0 || ref[qi][0] != p {
						t.Fatalf("%d queues: Dequeue returned a packet that is not the head of its queue %d", nq, qi)
					}
					if p.Next != nil {
						t.Fatalf("%d queues: a dequeued packet kept its Next %v", nq, p.Next)
					}
					ref[qi] = ref[qi][1:]
					pl.Put(p)
				case 7: // link down
					want := 0
					for qi := range ref {
						want += len(ref[qi])
						ref[qi] = ref[qi][:0]
					}
					if got := e.DropAll(now); got != want {
						t.Fatalf("%d queues: DropAll dropped %d packets, want %d", nq, got, want)
					}
				default: // enqueue
					p := pl.Get()
					p.Kind, p.PayloadLen, p.Class = packet.Data, int32(op)*5, op>>3&3
					if !e.Enqueue(now, p) {
						t.Fatalf("%d queues: an unbounded egress dropped a packet", nq)
					}
					qi := e.classQueue(p)
					ref[qi] = append(ref[qi], p)
				}
				var bytes int64
				for qi, q := range ref {
					if got := e.QueueLen(qi); got != len(q) {
						t.Fatalf("%d queues: queue %d holds %d packets, want %d", nq, qi, got, len(q))
					}
					for _, p := range q {
						bytes += int64(p.Size())
					}
				}
				if e.Bytes() != bytes {
					t.Fatalf("%d queues: egress holds %d bytes, want %d", nq, e.Bytes(), bytes)
				}
			}
		}
	})
}
