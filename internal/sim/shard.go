package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ecnsharp/internal/trace"
)

// ShardedEngine coordinates several per-domain Engines under conservative
// time windows, so one large simulation can execute on multiple cores
// without giving up determinism.
//
// # Model
//
// The topology is partitioned into D *domains*, each owning one Engine and
// every network element (hosts, switch ports, queues, transports) assigned
// to it. Domains only interact through registered Handoffs — one per
// directed cross-domain link — whose propagation delay is at least the
// engine's *lookahead* L. The run proceeds in windows aligned to an
// absolute grid of length L anchored at time zero:
//
//  1. take the earliest pending time — the domains' next events and the
//     handoff messages sent in the last window — and align its window
//     [T, T+L) to the grid (T = next - next mod L);
//  2. execute every domain's events with timestamp < T+L, in parallel on
//     up to `workers` goroutines (domain d belongs to group d mod
//     `workers`, and a run on W goroutines runs group g on worker g mod W;
//     see Group);
//  3. each domain starts its share of a window by injecting the handoff
//     messages sent to it in the previous one (buffers alternate by
//     window parity, so senders of this window never touch them), and
//     ends it by reporting its earliest pending time. The barrier between
//     windows only merges the per-domain trace streams.
//
// Because a cross-domain message sent at time t arrives at t+prop >= t+L
// >= T+L, no handoff can land inside the window that produced it, so step
// 2 never needs inter-domain communication: classic conservative
// synchronization with the barrier playing the role of null messages.
//
// # Determinism
//
// The domain decomposition is fixed by the topology — never by the worker
// count — so every quantity that orders execution is worker-independent:
// the window grid depends only on event times, and trace events are
// merged on (time, domain, emission order). Sequence numbers are per
// engine, so the only handoff order that matters is the order in which
// one destination injects its messages: registration order (wiring
// order) of its inbound handoffs, each handoff's messages in send order,
// before the destination's first event of the window — where a serial
// drain of every handoff at the barrier would have put them. A run on 1
// worker and a run on N workers are therefore byte-identical in traces,
// metrics and flow records. See DESIGN.md "Sharded execution".
//
// # Threading rules
//
// Construction, wiring (NewHandoff), SetTracer and result collection are
// single-threaded: before Run or after it returns. During a window each
// domain's Engine is touched only by its worker; callbacks must not reach
// into another domain's state except through Handoff.Send. Worker
// goroutines run simulation callbacks only — they must stay free of wall
// clocks and other nondeterminism, exactly like serial engine callbacks
// (ecnlint's wallclock analyzer covers this package). State that only the
// domains of one group reach is worker-owned: they never run at the same
// time, at any GOMAXPROCS, so it needs no synchronization. A run uses at most
// GOMAXPROCS workers, the coordinator goroutine being the first; between
// windows a worker spins on its epoch, yielding, and parks only when a
// window keeps it waiting.
//
// # One domain
//
// A one-domain ShardedEngine has nothing to synchronize, so it is the serial
// runtime: RunPoll drives the single Engine directly — no windows (Windows
// stays 0), no goroutines, no barrier — and SetTracer hands the tracer
// straight to it. Execution order, Processed, clocks and the trace stream
// equal those of a bare Engine given the same events.
type ShardedEngine struct {
	doms      []domain
	bufs      []domainTraceBuf
	heads     []mergeHead // reused by mergeTraces: the window's non-empty bufs
	lookahead Time
	workers   int

	// Handoffs in registration order, linked through next; layout groups
	// them by destination into inbound, with one dirty flag per handoff
	// and window parity.
	first, last *Handoff
	inbound     []*Handoff
	dirty       [2][]bool

	tracer  trace.Tracer
	running bool

	// windowEnd is the exclusive upper bound of the window being executed
	// and windows its number (its parity picks the handoff buffers being
	// filled); both written by the coordinator before workers start (their
	// epoch load orders the read).
	windowEnd Time
	windows   uint64
}

// domain is one domain's engine and what the run keeps for it. Only the
// worker running the domain writes it during a window; at 64 bytes, one
// line of the slice, it shares no cache line with a domain another worker
// runs.
type domain struct {
	eng *Engine
	// in and nin locate the domain's inbound handoffs in inbound and dirty.
	in, nin int
	// sent is the earliest arrival time of the messages the domain sent in
	// the current window (MaxTime when none).
	sent Time
	// msgs and drains count the handoff messages injected into the domain
	// and the non-empty handoff buffers they came in, empty the windows it
	// began with none to inject.
	msgs, drains, empty uint64
	// id is the domain's index in doms.
	id int
}

// NewShardedEngine builds a coordinator over `domains` fresh engines with
// the given lookahead (the minimum cross-domain link propagation delay;
// must be positive) and worker goroutine budget (clamped to [1, domains];
// a run further clamps it to GOMAXPROCS).
func NewShardedEngine(domains int, lookahead Time, workers int) *ShardedEngine {
	if domains < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least one domain, got %d", domains))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs positive lookahead, got %v", lookahead))
	}
	se := &ShardedEngine{
		doms:      make([]domain, domains),
		lookahead: lookahead,
		workers:   min(max(workers, 1), domains),
	}
	for d := range se.doms {
		se.doms[d] = domain{eng: NewEngine(), sent: MaxTime, id: d}
	}
	if domains > 1 {
		se.bufs = make([]domainTraceBuf, domains)
	}
	return se
}

// Domain returns domain d's engine, on which that domain's network
// elements schedule their events.
func (se *ShardedEngine) Domain(d int) *Engine { return se.doms[d].eng }

// Lookahead returns the conservative window length.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

// Workers returns the worker goroutine budget, which is also the number of
// worker groups.
func (se *ShardedEngine) Workers() int { return se.workers }

// Group returns domain d's worker group, d mod Workers(). A run on W
// worker goroutines (Workers() clamped to GOMAXPROCS) runs group g on
// worker g mod W, and a worker runs each of its groups' domains in
// ascending order; so two domains of one group never run at the same
// time, and the order in which they run is the same on every machine.
// State only one group reaches (topology's packet free lists) is
// therefore as deterministic and as free of synchronization as one
// domain's. On W = Workers() goroutines this is the stride d mod W.
func (se *ShardedEngine) Group(d int) int { return d % se.workers }

// Windows returns the number of synchronization windows executed so far.
func (se *ShardedEngine) Windows() uint64 { return se.windows }

// Processed sums the events executed across all domains.
func (se *ShardedEngine) Processed() uint64 {
	var n uint64
	for d := range se.doms {
		n += se.doms[d].eng.Processed
	}
	return n
}

// RunReport counts what the runs of a ShardedEngine executed. Every count
// is a function of the simulation alone — equal at any worker count and on
// any machine — so tests may assert it exactly.
type RunReport struct {
	// Windows is the number of synchronization windows (0 on one domain).
	Windows uint64 `json:"windows"`
	// DomainEvents holds the events each domain executed, by domain.
	DomainEvents []uint64 `json:"domain_events"`
	// HandoffMsgs is the number of messages delivered across domains.
	HandoffMsgs uint64 `json:"handoff_msgs"`
	// HandoffDrains is the number of non-empty handoff buffers drained:
	// at most one per handoff per window.
	HandoffDrains uint64 `json:"handoff_drains"`
	// EmptyDrains is the number of windows a domain began with no handoff
	// buffer to inject: Windows × domains − the windows that injected.
	EmptyDrains uint64 `json:"empty_drains"`
	// Refills is the number of radix-heap refills of every domain's event
	// queue, and RadixMoves the queue entries they redistributed.
	Refills    uint64 `json:"refills"`
	RadixMoves uint64 `json:"radix_moves"`
	// MarkKinds counts the marks the network's egress queues applied, by
	// the kind they were attributed to (indexed by trace.MarkKind). The
	// engine knows no queues: topology.Net.Report fills it.
	MarkKinds [trace.MarkProbabilistic + 1]uint64 `json:"mark_kinds"`
}

// Report returns the counts of every run so far.
func (se *ShardedEngine) Report() RunReport {
	r := RunReport{Windows: se.windows, DomainEvents: make([]uint64, len(se.doms))}
	for d := range se.doms {
		dm := &se.doms[d]
		r.DomainEvents[d] = dm.eng.Processed
		r.HandoffMsgs += dm.msgs
		r.HandoffDrains += dm.drains
		r.EmptyDrains += dm.empty
		r.Refills += dm.eng.refills
		r.RadixMoves += dm.eng.moves
	}
	return r
}

// HandoffTotals returns, per domain, the handoff messages the domain sent
// (out), those sent to it (to) and those injected into it (in). A run
// injects every buffered message before it returns, so to equals in domain
// by domain; the conservation audit checks it.
func (se *ShardedEngine) HandoffTotals() (out, to, in []uint64) {
	out = make([]uint64, len(se.doms))
	to = make([]uint64, len(se.doms))
	in = make([]uint64, len(se.doms))
	for h := se.first; h != nil; h = h.next {
		out[h.src.id] += h.sent
		to[h.dst.id] += h.sent
	}
	for d := range se.doms {
		in[d] = se.doms[d].msgs
	}
	return out, to, in
}

// Add accumulates o into r, domain by domain, as when pooling the runs of
// one network over several seeds.
func (r *RunReport) Add(o RunReport) {
	r.Windows += o.Windows
	r.HandoffMsgs += o.HandoffMsgs
	r.HandoffDrains += o.HandoffDrains
	r.EmptyDrains += o.EmptyDrains
	r.Refills += o.Refills
	r.RadixMoves += o.RadixMoves
	for k, m := range o.MarkKinds {
		r.MarkKinds[k] += m
	}
	r.DomainEvents = append(r.DomainEvents, make([]uint64, max(0, len(o.DomainEvents)-len(r.DomainEvents)))...)
	for d, e := range o.DomainEvents {
		r.DomainEvents[d] += e
	}
}

// Stop halts the run after the current window completes. It must be
// called from a RunPoll poll function or while the engine is not running;
// stopping from another goroutine mid-window would race with the workers.
func (se *ShardedEngine) Stop() {
	for d := range se.doms {
		se.doms[d].eng.Stop()
	}
}

// SetTracer attaches t as the merged-stream observer: every domain's
// engine-level emissions are buffered per domain during a window and
// forwarded to t at the barrier in (time, domain, emission order) order
// (a one-domain engine emits into t directly). Port-level queue tracers
// should be attached to DomainTracer(d) so their events join the same
// stream. Nil detaches. Attaching is idempotent and allowed any time the
// engine is not mid-run.
func (se *ShardedEngine) SetTracer(t trace.Tracer) {
	if se.running {
		panic("sim: SetTracer on a running ShardedEngine")
	}
	se.tracer = t
	for d := range se.doms {
		se.doms[d].eng.SetTracer(se.DomainTracer(d))
	}
}

// DomainTracer returns the tracer domain d's components emit into: the
// per-domain buffer that feeds the merged stream, the user's tracer itself
// on a one-domain engine, or nil when tracing is off. Components owned by
// domain d that hold their own tracer reference (switch egress queues)
// must use it instead of the user's tracer so ordering stays canonical.
func (se *ShardedEngine) DomainTracer(d int) trace.Tracer {
	if se.tracer == nil || len(se.doms) == 1 {
		return se.tracer
	}
	return &se.bufs[d]
}

// domainTraceBuf accumulates one domain's trace emissions during a window.
// Engines emit in nondecreasing time order, so the barrier merge is a
// k-way merge of sorted runs.
type domainTraceBuf struct {
	evs []trace.Event
	pos int
}

// Trace implements trace.Tracer by appending to the window buffer.
func (b *domainTraceBuf) Trace(e trace.Event) { b.evs = append(b.evs, e) }

// Handoff carries simulation messages across one directed domain
// boundary. The source domain calls Send during a window, into the buffer
// of that window's parity; the destination injects the buffer into its
// engine when it starts the next window. The buffers' backing arrays are
// reused, so steady-state handoff traffic does not allocate.
type Handoff struct {
	se       *ShardedEngine
	src, dst *domain
	deliver  func(any)
	bufs     [2][]handoffMsg
	// rank is the handoff's place among its destination's inbound
	// handoffs, pos its index in inbound and dirty (-1 until laid out).
	rank, pos int
	next      *Handoff // the next handoff registered
	// sent counts the messages Send buffered; only the source's worker
	// writes it.
	sent uint64
}

type handoffMsg struct {
	at  Time
	msg any
}

// NewHandoffFrom registers a boundary from the domain owned by src into
// the domain owned by dst. deliver is invoked on the destination engine at
// each message's arrival time. Registration order is part of the
// deterministic contract (it fixes the order in which a destination
// injects its messages), so wiring must happen in topology order, before
// the run starts.
func (se *ShardedEngine) NewHandoffFrom(src, dst *Engine, deliver func(any)) *Handoff {
	if se.running {
		panic("sim: NewHandoff on a running ShardedEngine")
	}
	if deliver == nil {
		panic("sim: NewHandoff with nil deliver")
	}
	if len(se.doms) == 1 {
		panic("sim: NewHandoff on a one-domain ShardedEngine, which has no boundary to cross")
	}
	h := &Handoff{se: se, src: se.domainOf(src, "source"), dst: se.domainOf(dst, "destination"), deliver: deliver, pos: -1}
	h.rank = h.dst.nin
	h.dst.nin++
	if se.last == nil {
		se.first = h
	} else {
		se.last.next = h
	}
	se.last = h
	return h
}

// NewHandoff is NewHandoffFrom on a two-domain engine, whose only possible
// source is the domain other than dst.
func (se *ShardedEngine) NewHandoff(dst *Engine, deliver func(any)) *Handoff {
	var src *Engine
	if len(se.doms) == 2 {
		src = se.doms[0].eng
		if src == dst {
			src = se.doms[1].eng
		}
	}
	return se.NewHandoffFrom(src, dst, deliver)
}

// domainOf returns the domain owning e, naming role in the panic when
// there is none.
func (se *ShardedEngine) domainOf(e *Engine, role string) *domain {
	for d := range se.doms {
		if se.doms[d].eng == e {
			return &se.doms[d]
		}
	}
	panic(fmt.Sprintf("sim: NewHandoff %s engine is not a domain of this ShardedEngine", role))
}

// handoffCap is the capacity a handoff buffer starts with: in one 1 µs
// window a 10 Gb/s link carries one full-size segment or a few ACKs.
const handoffCap = 4

// layout groups the registered handoffs by destination, registration order
// within each, into inbound, rebuilds the dirty flags from the buffers,
// and carves the buffers that have none from one slab.
func (se *ShardedEngine) layout() {
	n := 0
	for d := range se.doms {
		dm := &se.doms[d]
		dm.in = n
		n += dm.nin
	}
	se.inbound = make([]*Handoff, n)
	flags := make([]bool, 2*n)
	se.dirty = [2][]bool{flags[:n], flags[n:]}
	slab := make([]handoffMsg, 2*n*handoffCap)
	for h := se.first; h != nil; h = h.next {
		h.pos = h.dst.in + h.rank
		se.inbound[h.pos] = h
		for p := range h.bufs {
			se.dirty[p][h.pos] = len(h.bufs[p]) > 0
			if cap(h.bufs[p]) == 0 {
				k := (p*n + h.pos) * handoffCap
				h.bufs[p] = slab[k : k : k+handoffCap]
			}
		}
	}
}

// Send buffers msg for delivery at absolute time at. It must be called
// from the source domain's callbacks; at must land at or beyond the end
// of the current window (guaranteed when the boundary link's propagation
// delay is >= the lookahead — violating it means the partitioner computed
// the lookahead wrong, so it panics rather than corrupt causality).
func (h *Handoff) Send(at Time, msg any) {
	if at < h.se.windowEnd {
		panic(fmt.Sprintf("sim: handoff at %v violates lookahead (window ends %v)", at, h.se.windowEnd))
	}
	p := h.se.windows & 1
	if len(h.bufs[p]) == 0 {
		h.se.dirty[p][h.pos] = true
	}
	h.bufs[p] = append(h.bufs[p], handoffMsg{at: at, msg: msg})
	h.sent++
	if at < h.src.sent {
		h.src.sent = at
	}
}

// Run executes windows until every domain drains or Stop is called.
func (se *ShardedEngine) Run() {
	_ = se.RunPoll(MaxTime, 0, nil) // nil poll cannot fail
}

// RunUntil executes windows for events with timestamps <= deadline, then
// advances every domain clock to the deadline (mirroring Engine.RunUntil).
func (se *ShardedEngine) RunUntil(deadline Time) {
	_ = se.RunPoll(deadline, 0, nil) // nil poll cannot fail
}

// RunPoll is RunUntil with external interruption: when poll is non-nil it
// runs on the coordinator goroutine before every `every`-th window
// (every < 1 means every window; a one-domain engine, which has no
// windows, counts directChunk events as one); a non-nil error stops the
// run and is returned. A MaxTime deadline means run to completion and
// leaves the domain clocks at their last event. However the run ends, its
// worker goroutines have exited when RunPoll returns or panics.
func (se *ShardedEngine) RunPoll(deadline Time, every int, poll func() error) error {
	if se.running {
		panic("sim: ShardedEngine is already running")
	}
	se.running = true
	defer func() { se.running = false }()
	if every < 1 {
		every = 1
	}
	if len(se.doms) == 1 {
		return se.runDirect(deadline, every*directChunk, poll)
	}
	if se.last != nil && se.last.pos < 0 {
		se.layout() // handoffs were registered since the last run
	}
	var c *crew
	if w := min(se.workers, runtime.GOMAXPROCS(0)); w > 1 {
		c = startCrew(se, w)
		defer c.stop()
	}

	next := MaxTime
	for d := range se.doms {
		next = min(next, se.doms[d].next())
	}
	sincePoll := every // fire the first poll before the first window
	for {
		if poll != nil {
			if sincePoll++; sincePoll > every {
				sincePoll = 1
				if err := poll(); err != nil {
					se.flush()
					se.Stop()
					return err
				}
			}
		}
		if next == MaxTime || next > deadline {
			break
		}
		start := next - next%se.lookahead
		end := start + se.lookahead
		limit := min(end-Nanosecond, deadline)
		se.windowEnd = end
		se.windows++
		if c != nil {
			next = c.run(limit)
		} else {
			next = se.share(0, 1, limit)
		}
		se.mergeTraces()
	}
	se.flush()
	if deadline < MaxTime {
		for d := range se.doms {
			se.doms[d].eng.AdvanceTo(deadline)
		}
	}
	return nil
}

// directChunk is how many events a one-domain run executes per poll unit.
const directChunk = 1 << 12

// runDirect is RunPoll for a one-domain engine: the serial event loop,
// with poll (when non-nil) called before every chunk events.
func (se *ShardedEngine) runDirect(deadline Time, chunk int, poll func() error) error {
	e := se.doms[0].eng
	for more := true; more; more = e.RunChunk(deadline, chunk) {
		if poll != nil {
			if err := poll(); err != nil {
				e.Stop()
				return err
			}
		}
	}
	if deadline < MaxTime {
		e.AdvanceTo(deadline)
	}
	return nil
}

// share runs worker i of w through the current window — the domains of
// groups i, i+w, i+2w, …, group by group (see Group) — and returns the
// earliest time they have pending afterwards.
func (se *ShardedEngine) share(i, w int, limit Time) Time {
	p := se.windows & 1
	next := MaxTime
	for g := i; g < se.workers; g += w {
		for d := g; d < len(se.doms); d += se.workers {
			dm := &se.doms[d]
			if !se.drain(dm, p^1) {
				dm.empty++
			}
			dm.sent = MaxTime
			runWindow(dm.eng, limit)
			next = min(next, dm.next())
		}
	}
	return next
}

// next returns the earliest time dm has pending: its next event, or a
// message it sent that is not injected yet.
func (dm *domain) next() Time {
	if at, ok := dm.eng.peek(); ok {
		return min(at, dm.sent)
	}
	return dm.sent
}

// runWindow drains one engine's events with timestamps <= limit.
func runWindow(e *Engine, limit Time) {
	for e.RunChunk(limit, 1<<20) {
	}
}

// drain injects the messages sent to dm in the window of parity p into its
// engine: the handoffs a sender marked dirty, in registration order, each
// one's messages in send order. It reports whether there were any.
func (se *ShardedEngine) drain(dm *domain, p uint64) bool {
	drains := dm.drains
	dirty := se.dirty[p][dm.in : dm.in+dm.nin]
	for i, set := range dirty {
		if !set {
			continue
		}
		dirty[i] = false
		h := se.inbound[dm.in+i]
		buf := h.bufs[p]
		for j := range buf {
			m := &buf[j]
			dm.eng.ScheduleArg(m.at, h.deliver, m.msg)
			m.msg = nil // drop the reference; the backing array is reused
		}
		dm.msgs += uint64(len(buf))
		dm.drains++
		h.bufs[p] = buf[:0]
	}
	return dm.drains != drains
}

// flush injects the messages of the last window, so that none stays
// buffered between runs.
func (se *ShardedEngine) flush() {
	p := se.windows & 1
	for d := range se.doms {
		dm := &se.doms[d]
		se.drain(dm, p)
		dm.sent = MaxTime
	}
}

// crew is the worker goroutines of one multi-worker run. The coordinator
// is worker 0 and runs its share itself; worker i > 0 waits for its epoch
// to reach the window number, runs its share and counts itself done.
type crew struct {
	se      *ShardedEngine
	workers []crewWorker
	limit   Time
	// done counts the shares workers 1.. finished over the run; the
	// coordinator waits for it to reach target, parking in worker 0's slot.
	done   atomic.Uint64
	target uint64
	exited sync.WaitGroup
}

// crewWorker is one worker's slot, padded so workers do not share lines.
type crewWorker struct {
	epoch   atomic.Uint64
	parked  atomic.Bool
	wake    chan struct{}
	next    Time
	failure any
	_       [64]byte
}

// quit is the epoch that tells a worker to exit.
const quit = math.MaxUint64

func startCrew(se *ShardedEngine, w int) *crew {
	c := &crew{se: se, workers: make([]crewWorker, w)}
	for i := range c.workers {
		c.workers[i].wake = make(chan struct{}, 1)
	}
	c.exited.Add(w - 1)
	for i := 1; i < w; i++ {
		go c.loop(i)
	}
	return c
}

// loop is worker i: one share per epoch until quit. A callback panic is
// captured and re-raised on the coordinator, so it surfaces like a serial
// engine panic instead of crashing the process from a bare goroutine.
func (c *crew) loop(i int) {
	defer c.exited.Done()
	w := &c.workers[i]
	for epoch := uint64(1); ; epoch++ {
		if await(&w.epoch, epoch, &w.parked, w.wake) == quit {
			return
		}
		w.next, w.failure = c.share(i)
		c.done.Add(1)
		wakeUp(&c.workers[0].parked, c.workers[0].wake)
	}
}

// share is ShardedEngine.share for worker i, returning a panic instead of
// raising it.
func (c *crew) share(i int) (next Time, failure any) {
	defer func() {
		if r := recover(); r != nil {
			next, failure = MaxTime, r
		}
	}()
	return c.se.share(i, len(c.workers), c.limit), nil
}

// run executes one window on every worker and returns the earliest time
// pending afterwards; a worker's panic (the lowest worker's, when several
// panicked) is re-raised here.
func (c *crew) run(limit Time) Time {
	c.limit = limit
	c.target += uint64(len(c.workers) - 1)
	for i := 1; i < len(c.workers); i++ {
		w := &c.workers[i]
		w.epoch.Add(1)
		wakeUp(&w.parked, w.wake)
	}
	w0 := &c.workers[0]
	w0.next, w0.failure = c.share(0)
	await(&c.done, c.target, &w0.parked, w0.wake)
	next := MaxTime
	for i := range c.workers {
		if f := c.workers[i].failure; f != nil {
			panic(f)
		}
		next = min(next, c.workers[i].next)
	}
	return next
}

// stop makes every worker exit and waits until they have.
func (c *crew) stop() {
	for i := 1; i < len(c.workers); i++ {
		w := &c.workers[i]
		w.epoch.Store(quit)
		wakeUp(&w.parked, w.wake)
	}
	c.exited.Wait()
}

// Waiting between windows: a waiter re-reads its word spinPolls times, the
// polls after pureSpins yielding the processor so that a waiter sharing
// one with the goroutine it waits for lets that goroutine run, and then
// parks until woken.
const (
	pureSpins = 1 << 7
	spinPolls = 1 << 10
)

// await returns once v reaches target. Parking is a handshake with wakeUp:
// the waiter sets parked and re-reads v; whoever clears parked owns the
// one wake token, so no wake-up is lost and none is left behind.
func await(v *atomic.Uint64, target uint64, parked *atomic.Bool, wake chan struct{}) uint64 {
	for i := 0; ; i++ {
		if x := v.Load(); x >= target {
			return x
		}
		switch {
		case i < pureSpins:
		case i < spinPolls:
			runtime.Gosched()
		default:
			parked.Store(true)
			if x := v.Load(); x >= target {
				if !parked.CompareAndSwap(true, false) {
					<-wake // a waker claimed the park: take its token
				}
				return x
			}
			<-wake
		}
	}
}

// wakeUp wakes the waiter behind parked if it is parked.
func wakeUp(parked *atomic.Bool, wake chan struct{}) {
	if parked.Load() && parked.CompareAndSwap(true, false) {
		wake <- struct{}{}
	}
}

// mergeTraces forwards the window's buffered trace events to the user's
// tracer in (time, domain, emission order) order, then resets the buffers
// for the next window (keeping their backing arrays). Only the buffers
// that received events take part, kept in domain order so the earliest
// domain wins a tie, and each leaves as soon as it is drained. One scan of
// the head times finds the earliest buffer and the runner-up, and the
// earliest then forwards its whole run of events that still precede the
// runner-up's head.
func (se *ShardedEngine) mergeTraces() {
	if se.tracer == nil {
		return
	}
	heads := se.heads[:0]
	for d := range se.bufs {
		if b := &se.bufs[d]; len(b.evs) > 0 {
			heads = append(heads, mergeHead{b.evs[0].At, b})
		}
	}
	for len(heads) > 0 {
		best, next, nextIdx := 0, int64(math.MaxInt64), len(heads)
		for i := 1; i < len(heads); i++ {
			if at := heads[i].at; at < heads[best].at {
				best, next, nextIdx = i, heads[best].at, best
			} else if at < next {
				next, nextIdx = at, i
			}
		}
		h := &heads[best]
		b := h.b
		for {
			se.tracer.Trace(b.evs[b.pos])
			if b.pos++; b.pos == len(b.evs) {
				b.evs, b.pos = b.evs[:0], 0
				heads = append(heads[:best], heads[best+1:]...)
				break
			}
			if h.at = b.evs[b.pos].At; h.at > next || h.at == next && best > nextIdx {
				break
			}
		}
	}
	se.heads = heads
}

// mergeHead is a buffer taking part in a barrier merge, with the time of
// its next event.
type mergeHead struct {
	at int64
	b  *domainTraceBuf
}
