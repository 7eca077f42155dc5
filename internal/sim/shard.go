package sim

import (
	"fmt"
	"math"

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
//  1. find the earliest pending event across all domains and align its
//     window [T, T+L) to the grid (T = next - next mod L);
//  2. execute every domain's events with timestamp < T+L, in parallel on
//     up to `workers` goroutines (domain i runs on worker i mod W);
//  3. barrier: inject all buffered cross-domain handoffs into their
//     destination engines and merge the per-domain trace streams.
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
// the window grid depends only on event times; handoffs are injected at
// the barrier in Handoff registration order (wiring order), entries in
// send order, making destination sequence numbers reproducible; and trace
// events are merged on (time, domain, emission order). A run on 1 worker
// and a run on N workers are therefore byte-identical in traces, metrics
// and flow records. See DESIGN.md "Sharded execution".
//
// # Threading rules
//
// Construction, wiring (NewHandoff), SetTracer and result collection are
// single-threaded: before Run or after it returns. During a window each
// domain's Engine is touched only by its worker; callbacks must not reach
// into another domain's state except through Handoff.Send. Worker
// goroutines run simulation callbacks only — they must stay free of wall
// clocks and other nondeterminism, exactly like serial engine callbacks
// (ecnlint's wallclock analyzer covers this package).
//
// # One domain
//
// A one-domain ShardedEngine has nothing to synchronize, so it is the serial
// runtime: RunPoll drives the single Engine directly — no windows (Windows
// stays 0), no goroutines, no barrier — and SetTracer hands the tracer
// straight to it. Execution order, Processed, clocks and the trace stream
// equal those of a bare Engine given the same events.
type ShardedEngine struct {
	engs      []*Engine
	bufs      []domainTraceBuf
	heads     []mergeHead // reused by mergeTraces: the window's non-empty bufs
	handoffs  []*Handoff
	lookahead Time
	workers   int

	tracer  trace.Tracer
	running bool

	// windowEnd is the exclusive upper bound of the window being executed;
	// written by the coordinator before workers start (their channel
	// receive orders the read), used to assert the lookahead contract.
	windowEnd Time

	windows uint64
}

// NewShardedEngine builds a coordinator over `domains` fresh engines with
// the given lookahead (the minimum cross-domain link propagation delay;
// must be positive) and worker goroutine budget (clamped to [1, domains]).
func NewShardedEngine(domains int, lookahead Time, workers int) *ShardedEngine {
	if domains < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least one domain, got %d", domains))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs positive lookahead, got %v", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > domains {
		workers = domains
	}
	se := &ShardedEngine{
		engs:      make([]*Engine, domains),
		lookahead: lookahead,
		workers:   workers,
	}
	for d := range se.engs {
		se.engs[d] = NewEngine()
	}
	if domains > 1 {
		se.bufs = make([]domainTraceBuf, domains)
	}
	return se
}

// Domains returns the number of domains.
func (se *ShardedEngine) Domains() int { return len(se.engs) }

// Domain returns domain d's engine, on which that domain's network
// elements schedule their events.
func (se *ShardedEngine) Domain(d int) *Engine { return se.engs[d] }

// Lookahead returns the conservative window length.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

// Workers returns the worker goroutine budget.
func (se *ShardedEngine) Workers() int { return se.workers }

// Windows returns the number of synchronization windows executed so far.
func (se *ShardedEngine) Windows() uint64 { return se.windows }

// Processed sums the events executed across all domains.
func (se *ShardedEngine) Processed() uint64 {
	var n uint64
	for _, e := range se.engs {
		n += e.Processed
	}
	return n
}

// Stop halts the run after the current window completes. It must be
// called from a RunPoll poll function or while the engine is not running;
// stopping from another goroutine mid-window would race with the workers.
func (se *ShardedEngine) Stop() {
	for _, e := range se.engs {
		e.Stop()
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
	for d := range se.engs {
		se.engs[d].SetTracer(se.DomainTracer(d))
	}
}

// Tracer returns the merged-stream tracer attached via SetTracer (nil
// when tracing is off).
func (se *ShardedEngine) Tracer() trace.Tracer { return se.tracer }

// DomainTracer returns the tracer domain d's components emit into: the
// per-domain buffer that feeds the merged stream, the user's tracer itself
// on a one-domain engine, or nil when tracing is off. Components owned by
// domain d that hold their own tracer reference (switch egress queues)
// must use it instead of the user's tracer so ordering stays canonical.
func (se *ShardedEngine) DomainTracer(d int) trace.Tracer {
	if se.tracer == nil || len(se.engs) == 1 {
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
// boundary. The source domain calls Send during a window; the coordinator
// drains the buffer into the destination engine at the barrier. The
// buffer's backing array is reused across windows, so steady-state
// handoff traffic does not allocate.
type Handoff struct {
	se      *ShardedEngine
	dst     *Engine
	deliver func(any)
	buf     []handoffMsg
}

type handoffMsg struct {
	at  Time
	msg any
}

// NewHandoff registers a boundary into the domain owned by dst. deliver
// is invoked on the destination engine at each message's arrival time.
// Registration order is part of the deterministic contract (it fixes the
// barrier injection order), so wiring must happen in topology order,
// before the run starts.
func (se *ShardedEngine) NewHandoff(dst *Engine, deliver func(any)) *Handoff {
	if se.running {
		panic("sim: NewHandoff on a running ShardedEngine")
	}
	if deliver == nil {
		panic("sim: NewHandoff with nil deliver")
	}
	if len(se.engs) == 1 {
		panic("sim: NewHandoff on a one-domain ShardedEngine, which has no boundary to cross")
	}
	owned := false
	for _, e := range se.engs {
		if e == dst {
			owned = true
			break
		}
	}
	if !owned {
		panic("sim: NewHandoff destination engine is not a domain of this ShardedEngine")
	}
	h := &Handoff{se: se, dst: dst, deliver: deliver}
	se.handoffs = append(se.handoffs, h)
	return h
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
	h.buf = append(h.buf, handoffMsg{at: at, msg: msg})
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
// leaves the domain clocks at their last event.
func (se *ShardedEngine) RunPoll(deadline Time, every int, poll func() error) error {
	if se.running {
		panic("sim: ShardedEngine is already running")
	}
	se.running = true
	defer func() { se.running = false }()
	if every < 1 {
		every = 1
	}
	if len(se.engs) == 1 {
		return se.runDirect(deadline, every*directChunk, poll)
	}

	w := se.workers
	var starts []chan Time
	var done chan workerResult
	if w > 1 {
		starts = make([]chan Time, w)
		done = make(chan workerResult, w)
		for i := range starts {
			starts[i] = make(chan Time, 1)
			go se.workerLoop(i, w, starts[i], done)
		}
		defer func() {
			for _, c := range starts {
				close(c)
			}
		}()
	}

	sincePoll := every // fire the first poll before the first window
	for {
		if poll != nil {
			if sincePoll++; sincePoll > every {
				sincePoll = 1
				if err := poll(); err != nil {
					se.Stop()
					return err
				}
			}
		}
		next, ok := se.nextEventTime()
		if !ok || next > deadline {
			break
		}
		start := next - next%se.lookahead
		end := start + se.lookahead
		limit := end - Nanosecond
		if limit > deadline {
			limit = deadline
		}
		se.windowEnd = end
		se.windows++
		if w > 1 {
			for _, c := range starts {
				c <- limit
			}
			var failure any
			for i := 0; i < w; i++ {
				if r := <-done; r.panicked && failure == nil {
					failure = r.value
				}
			}
			if failure != nil {
				panic(failure)
			}
		} else {
			for _, e := range se.engs {
				runWindow(e, limit)
			}
		}
		se.drainHandoffs()
		se.mergeTraces()
	}
	if deadline < MaxTime {
		for _, e := range se.engs {
			e.AdvanceTo(deadline)
		}
	}
	return nil
}

// directChunk is how many events a one-domain run executes per poll unit.
const directChunk = 1 << 12

// runDirect is RunPoll for a one-domain engine: the serial event loop,
// with poll (when non-nil) called before every chunk events.
func (se *ShardedEngine) runDirect(deadline Time, chunk int, poll func() error) error {
	e := se.engs[0]
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

// workerResult carries a worker's window outcome; a callback panic is
// captured and re-raised on the coordinator so it surfaces like a serial
// engine panic instead of crashing the process from a bare goroutine.
type workerResult struct {
	panicked bool
	value    any
}

// workerLoop runs domains i, i+stride, i+2*stride, … for each window
// limit received, until the start channel closes.
func (se *ShardedEngine) workerLoop(i, stride int, start <-chan Time, done chan<- workerResult) {
	for limit := range start {
		var res workerResult
		func() {
			defer func() {
				if r := recover(); r != nil {
					res = workerResult{panicked: true, value: r}
				}
			}()
			for d := i; d < len(se.engs); d += stride {
				runWindow(se.engs[d], limit)
			}
		}()
		done <- res
	}
}

// runWindow drains one engine's events with timestamps <= limit.
func runWindow(e *Engine, limit Time) {
	for e.RunChunk(limit, 1<<20) {
	}
}

// nextEventTime returns the earliest pending event time across domains.
func (se *ShardedEngine) nextEventTime() (Time, bool) {
	var best Time
	found := false
	for _, e := range se.engs {
		if at, ok := e.peek(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// drainHandoffs injects every buffered cross-domain message into its
// destination engine, in the canonical (registration, send) order.
func (se *ShardedEngine) drainHandoffs() {
	for _, h := range se.handoffs {
		for i := range h.buf {
			m := &h.buf[i]
			h.dst.ScheduleArg(m.at, h.deliver, m.msg)
			m.msg = nil // drop the reference; the backing array is reused
		}
		h.buf = h.buf[:0]
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
