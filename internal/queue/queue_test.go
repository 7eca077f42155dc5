package queue

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/sim"
)

func pkt(size int) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, PayloadLen: int32(size - packet.HeaderSize), ECN: packet.ECT}
}

func TestFIFOBasics(t *testing.T) {
	f := NewFIFO()
	if !f.Empty() || f.Len() != 0 || f.Bytes() != 0 {
		t.Fatal("new FIFO not empty")
	}
	if f.Pop() != nil || f.Peek() != nil {
		t.Fatal("Pop/Peek on empty not nil")
	}
	p1, p2 := pkt(1500), pkt(100)
	f.Push(p1)
	f.Push(p2)
	if f.Len() != 2 || f.Bytes() != 1600 {
		t.Fatalf("Len=%d Bytes=%d", f.Len(), f.Bytes())
	}
	if f.Peek() != p1 {
		t.Error("Peek != first pushed")
	}
	if f.Pop() != p1 || f.Pop() != p2 {
		t.Error("FIFO order violated")
	}
	if !f.Empty() {
		t.Error("not empty after draining")
	}
}

// TestFIFOOrderProperty: arbitrary push/pop interleavings preserve FIFO
// order and byte accounting.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewFIFO()
		var model []*packet.Packet
		bytes := int64(0)
		for op := 0; op < 500; op++ {
			if rng.Intn(2) == 0 {
				p := pkt(rng.Intn(1400) + 100)
				q.Push(p)
				model = append(model, p)
				bytes += int64(p.Size())
			} else if len(model) > 0 {
				got := q.Pop()
				want := model[0]
				model = model[1:]
				bytes -= int64(want.Size())
				if got != want {
					return false
				}
			}
			if q.Len() != len(model) || q.Bytes() != bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFIFOGrowth(t *testing.T) {
	f := NewFIFO()
	var all []*packet.Packet
	for i := 0; i < 1000; i++ {
		p := pkt(100)
		f.Push(p)
		all = append(all, p)
	}
	for i, want := range all {
		if got := f.Pop(); got != want {
			t.Fatalf("packet %d out of order after growth", i)
		}
	}
}

func TestDWRRPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewEgress([]int{1, 0}, 0, nil) },
		func() { NewEgress([]int{-1}, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// drainDWRR serves n packets from an egress with all queues backlogged and
// returns per-queue served byte counts.
func drainDWRR(t *testing.T, weights []int, perQueue int, n int) []int64 {
	t.Helper()
	eg := NewEgress(weights, 0, nil)
	for q := 0; q < len(weights); q++ {
		for i := 0; i < perQueue; i++ {
			p := pkt(1500)
			p.Class = uint8(q)
			eg.Enqueue(0, p)
		}
	}
	served := make([]int64, len(weights))
	for i := 0; i < n; i++ {
		p := eg.Dequeue(sim.Time(i))
		if p == nil {
			t.Fatal("egress drained early")
		}
		served[p.Class] += int64(p.Size())
	}
	return served
}

func TestDWRRWeightedShares(t *testing.T) {
	// The Figure 13 configuration: 3 queues, weights 2:1:1.
	served := drainDWRR(t, []int{2, 1, 1}, 2000, 2000)
	total := served[0] + served[1] + served[2]
	f0 := float64(served[0]) / float64(total)
	f1 := float64(served[1]) / float64(total)
	f2 := float64(served[2]) / float64(total)
	if f0 < 0.48 || f0 > 0.52 {
		t.Errorf("queue0 share = %v, want ≈0.5", f0)
	}
	if f1 < 0.23 || f1 > 0.27 || f2 < 0.23 || f2 > 0.27 {
		t.Errorf("queue1/2 shares = %v/%v, want ≈0.25", f1, f2)
	}
}

func TestDWRREqualWeights(t *testing.T) {
	served := drainDWRR(t, []int{1, 1}, 1000, 1000)
	diff := served[0] - served[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*1500 {
		t.Errorf("equal weights diverged: %v", served)
	}
}

func TestDWRRSkipsEmptyQueues(t *testing.T) {
	eg := NewEgress([]int{2, 1, 1}, 0, nil)
	// Only queue 2 backlogged: it gets full service.
	for i := 0; i < 10; i++ {
		p := pkt(1500)
		p.Class = 2
		eg.Enqueue(0, p)
	}
	for i := 0; i < 10; i++ {
		p := eg.Dequeue(sim.Time(i))
		if p == nil || p.Class != 2 {
			t.Fatal("DWRR starved the only backlogged queue")
		}
	}
	if eg.Dequeue(100) != nil {
		t.Error("dequeue from empty egress")
	}
}

func TestDWRREmptiedQueueForfeitsDeficit(t *testing.T) {
	eg := NewEgress([]int{1, 1}, 0, nil)
	p := pkt(1500)
	p.Class = 0
	eg.Enqueue(0, p)
	if got := eg.Dequeue(0); got == nil || got.Class != 0 {
		t.Fatal("single packet not served")
	}
	defs := eg.Deficits()
	if defs[0] != 0 {
		t.Errorf("emptied queue kept deficit %d", defs[0])
	}
}

// TestDWRRFairnessProperty: for random weights and enough rounds, byte
// shares approach weight shares within a few quanta.
func TestDWRRFairnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 2
		weights := make([]int, n)
		totalW := 0
		for i := range weights {
			weights[i] = rng.Intn(4) + 1
			totalW += weights[i]
		}
		eg := NewEgress(weights, 0, nil)
		perQueue := 3000
		for q := 0; q < n; q++ {
			for i := 0; i < perQueue; i++ {
				p := pkt(1500)
				p.Class = uint8(q)
				eg.Enqueue(0, p)
			}
		}
		serves := 2000
		served := make([]int64, n)
		for i := 0; i < serves; i++ {
			p := eg.Dequeue(sim.Time(i))
			if p == nil {
				return false
			}
			served[p.Class] += int64(p.Size())
		}
		total := int64(0)
		for _, s := range served {
			total += s
		}
		for q := 0; q < n; q++ {
			want := float64(weights[q]) / float64(totalW)
			got := float64(served[q]) / float64(total)
			if got < want-0.05 || got > want+0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEgressTailDrop(t *testing.T) {
	eg := NewEgress(nil, 3*1500, nil)
	for i := 0; i < 3; i++ {
		if !eg.Enqueue(0, pkt(1500)) {
			t.Fatalf("packet %d dropped below the buffer bound", i)
		}
	}
	if eg.Enqueue(0, pkt(1500)) {
		t.Error("packet admitted beyond the buffer bound")
	}
	if eg.Settings().Tally.Drops != 1 || eg.Settings().Tally.DropBytes != 1500 {
		t.Errorf("Drops=%d DropBytes=%d", eg.Settings().Tally.Drops, eg.Settings().Tally.DropBytes)
	}
}

func TestEgressMarkingOnlyECT(t *testing.T) {
	eg := NewEgress(nil, 0, func(int) aqm.AQM {
		return aqm.NewTCN(0) // marks every packet with sojourn > 0
	})
	ect := pkt(1500)
	notEct := pkt(1500)
	notEct.ECN = packet.NotECT
	eg.Enqueue(0, ect)
	eg.Enqueue(0, notEct)
	p1 := eg.Dequeue(100 * sim.Microsecond)
	p2 := eg.Dequeue(100 * sim.Microsecond)
	if p1.ECN != packet.CE {
		t.Error("ECT packet not CE-marked")
	}
	if p2.ECN != packet.NotECT {
		t.Error("NotECT packet was modified")
	}
	if eg.Settings().Tally.DeqMarks != 1 {
		t.Errorf("DeqMarks = %d, want 1", eg.Settings().Tally.DeqMarks)
	}
}

func TestEgressSojournStamp(t *testing.T) {
	eg := NewEgress(nil, 0, nil)
	p := pkt(1500)
	eg.Enqueue(10*sim.Microsecond, p)
	if p.EnqueuedAt != 10*sim.Microsecond {
		t.Error("enqueue timestamp not stamped")
	}
	out := eg.Dequeue(35 * sim.Microsecond)
	if got := out.SojournTime(35 * sim.Microsecond); got != 25*sim.Microsecond {
		t.Errorf("sojourn = %v, want 25µs", got)
	}
}

// TestEgressClassClamping: a flow's class, narrowed to the packet's byte by
// packet.ClassOf, picks the queue the int class picked before the packet
// had a byte for it: below 0 the first queue, past the last queue the last,
// on an egress of 2 queues and on one of 256.
func TestEgressClassClamping(t *testing.T) {
	for _, queues := range []int{2, packet.MaxClass + 1} {
		for _, class := range []int{-5, -1, 0, 1, 99, 255, 256, 300, math.MaxInt} {
			weights := make([]int, queues)
			for i := range weights {
				weights[i] = 1
			}
			eg := NewEgress(weights, 0, nil)
			p := pkt(100)
			p.Class = packet.ClassOf(class)
			eg.Enqueue(0, p)
			want := min(max(class, 0), queues-1)
			if eg.QueueLen(want) != 1 {
				t.Errorf("%d queues: class %d (packet class %d) missed queue %d", queues, class, p.Class, want)
			}
		}
	}
}

// countTap is a test-only tap on a service queue: an AQM that marks nothing
// and counts the packets the queue admitted and released, which an egress
// does not count itself.
type countTap struct{ enq, deq int }

func (*countTap) Name() string { return "tap" }

func (c *countTap) OnEnqueue(sim.Time, *packet.Packet, aqm.Backlog) bool { c.enq++; return false }

func (c *countTap) OnDequeue(sim.Time, *packet.Packet, sim.Time) bool { c.deq++; return false }

func TestEgressCounters(t *testing.T) {
	tap := new(countTap)
	eg := NewEgress(nil, 0, func(int) aqm.AQM { return tap })
	eg.Enqueue(0, pkt(1500))
	eg.Enqueue(0, pkt(1500))
	eg.Dequeue(1)
	if tap.enq != 2 || tap.deq != 1 {
		t.Errorf("Enqueued=%d Dequeued=%d", tap.enq, tap.deq)
	}
	if eg.Len() != 1 || eg.Bytes() != 1500 {
		t.Errorf("Len=%d Bytes=%d", eg.Len(), eg.Bytes())
	}
	if eg.Empty() {
		t.Error("Empty with one queued packet")
	}
	if eg.NumQueues() != 1 || eg.AQM(0) == nil {
		t.Error("introspection broken")
	}
}

func TestEgressPanicsOnZeroQueues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewEgress([]int{}, 0, nil)
}

func TestSharedPoolAdmission(t *testing.T) {
	// Pool of 10 packets, DT alpha 1: a queue may use at most the free
	// space, i.e. up to half the pool when it is the only user (q <= free
	// means q <= C - q).
	pool := NewSharedPool(10*1500, 1)
	hot := NewEgress(nil, 0, nil)
	hot.Settings().Pool = pool
	admitted := 0
	for i := 0; i < 10; i++ {
		if hot.Enqueue(0, pkt(1500)) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Errorf("alpha=1 single user admitted %d of 10, want 5 (q <= free)", admitted)
	}
	if pool.Used() != int64(admitted)*1500 {
		t.Errorf("pool used %d", pool.Used())
	}
	if pool.Rejected == 0 {
		t.Error("no rejections counted")
	}
	// Draining returns space to the pool.
	for hot.Len() > 0 {
		hot.Dequeue(1)
	}
	if pool.Used() != 0 {
		t.Errorf("pool not drained: %d", pool.Used())
	}
}

func TestSharedPoolLargeAlphaUsesWholePool(t *testing.T) {
	pool := NewSharedPool(10*1500, 16)
	hot := NewEgress(nil, 0, nil)
	hot.Settings().Pool = pool
	admitted := 0
	for i := 0; i < 12; i++ {
		if hot.Enqueue(0, pkt(1500)) {
			admitted++
		}
	}
	// With a large alpha the only bound is the pool itself... except the
	// last admission must still fit the remaining free space.
	if admitted < 9 {
		t.Errorf("large alpha admitted only %d of 10 pool slots", admitted)
	}
}

func TestSharedPoolIsolatesPorts(t *testing.T) {
	// Two ports share a pool; a hog cannot take everything from a newcomer.
	pool := NewSharedPool(20*1500, 1)
	hog := NewEgress(nil, 0, nil)
	hog.Settings().Pool = pool
	late := NewEgress(nil, 0, nil)
	late.Settings().Pool = pool
	for i := 0; i < 20; i++ {
		hog.Enqueue(0, pkt(1500))
	}
	// The hog stopped at q <= free; the latecomer must still get buffers.
	got := 0
	for i := 0; i < 4; i++ {
		if late.Enqueue(0, pkt(1500)) {
			got++
		}
	}
	if got == 0 {
		t.Error("latecomer starved despite dynamic thresholds")
	}
}

func TestSharedPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewSharedPool(0, 1)
}

func TestSharedPoolOverReleasePanics(t *testing.T) {
	pool := NewSharedPool(1500, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	pool.release(1500)
}
