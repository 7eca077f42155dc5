// Package service is the ecnsharpd experiment server: a long-running
// HTTP/JSON daemon that accepts sweep specs (the same schema `ecnsim
// -spec` reads), fans the resolved cells into the harness worker pool,
// streams per-cell progress and results over chunked NDJSON responses,
// and backs every cell with the content-addressed result cache — so a
// sweep that resubmits known (config, seed) cells is served from disk,
// byte-identical to recomputation, and concurrent identical submissions
// share one execution.
//
// Sweeps and tune runs are two kinds of one job: one registry, one progress
// log and five handlers serve both, each kind's own work behind an interface.
//
// The full API is documented in docs/API.md; the route table there is
// kept in lockstep with Routes by a test.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/harness"
)

// Config configures a Server.
type Config struct {
	// Store is the content-addressed result cache backing every cell;
	// required.
	Store *cache.Store
	// Parallel sizes each sweep's worker pool (0 = one worker per CPU).
	Parallel int
	// Timeout, when positive, bounds each cell computation's wall-clock
	// time. It bounds the computation, not a cache-hit read or the wait
	// for an in-flight duplicate.
	Timeout time.Duration
	// MaxSpecBytes caps the request body accepted by the submit
	// endpoint; 0 means 1 MiB.
	MaxSpecBytes int64
}

// Server executes sweeps and tune runs against the cache and serves the
// HTTP API. Use New to build one and Handler to mount it.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	ctx    context.Context
	cancel context.CancelFunc

	// The job registry: every retained job by id, and each kind's half.
	mu    sync.Mutex
	jobs  map[string]*job
	kinds map[*jobKind]*kindJobs
	// The sweep spec document parsed last and its grid, under mu: a
	// resubmitted spec shares the grid instead of parsing and keying it
	// again.
	lastSpec string
	lastGrid *grid

	// table holds decoded cells and pooled loads for sweeps to reuse.
	table *table
}

// Route describes one registered API endpoint: the method, the
// http.ServeMux pattern it is mounted at, a one-line summary, and the
// handler New mounts there. Routes returns the full table, GET /v1/routes
// serves it, and docs/API.md documents every entry (test-enforced).
type Route struct {
	// Method is the HTTP method.
	Method string `json:"method"`
	// Pattern is the ServeMux pattern, with {wildcards}.
	Pattern string `json:"pattern"`
	// Brief is a one-line description.
	Brief string `json:"brief"`

	serve func(*Server, http.ResponseWriter, *http.Request)
}

// Routes returns the daemon's complete route table, in docs order. It is
// the one place a route is written: New registers exactly these rows.
func Routes() []Route {
	return []Route{
		{"GET", "/healthz", "liveness probe; reports the result schema version", (*Server).handleHealthz},
		{"GET", "/v1/routes", "this route table, machine-readable", (*Server).handleRoutes},
		{"POST", "/v1/sweeps", "submit a sweep spec; returns the sweep id and per-cell cache keys", sweepKind.on((*Server).handleSubmit)},
		{"GET", "/v1/sweeps", "list submitted sweeps and their states", sweepKind.on((*Server).handleList)},
		{"GET", "/v1/sweeps/{id}", "sweep status: per-cell states, cache hits, progress", sweepKind.onJob((*Server).handleStatus)},
		{"GET", "/v1/sweeps/{id}/stream", "chunked NDJSON stream of per-cell completion events", sweepKind.onJob((*Server).handleStream)},
		{"GET", "/v1/sweeps/{id}/results", "pooled per-load statistics plus per-cell results (when finished)", sweepKind.onJob((*Server).handleResult)},
		{"GET", "/v1/sweeps/{id}/cells/{index}/trace", "stored JSONL event trace of one cell", sweepKind.onJob((*Server).handleCellTrace)},
		{"GET", "/v1/cache/stats", "result-cache counters and occupancy", (*Server).handleCacheStats},
		{"POST", "/v1/tune", "submit a tune spec; starts the searcher and returns the run id", tuneKind.on((*Server).handleSubmit)},
		{"GET", "/v1/tune", "list submitted tune runs and their states", tuneKind.on((*Server).handleList)},
		{"GET", "/v1/tune/{id}", "tune run status: state, spec, evaluations so far", tuneKind.onJob((*Server).handleStatus)},
		{"GET", "/v1/tune/{id}/stream", "chunked NDJSON stream of per-candidate evaluation events", tuneKind.onJob((*Server).handleStream)},
		{"GET", "/v1/tune/{id}/result", "full TuneResult document (when finished)", tuneKind.onJob((*Server).handleResult)},
	}
}

// New builds a Server around the given config.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("service: Config.Store is required")
	}
	if cfg.MaxSpecBytes == 0 {
		cfg.MaxSpecBytes = 1 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
		kinds:  map[*jobKind]*kindJobs{sweepKind: {}, tuneKind: {}},
		table:  newTable(tableBudget),
	}
	for _, rt := range Routes() {
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			rt.serve(s, w, r)
		})
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every running job's context. In-flight requests drain
// under the http.Server's own shutdown; Close only stops the simulations.
func (s *Server) Close() { s.cancel() }

// A job's lifecycle states; they are serialized into every status payload.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// eventLog is the progress log of one job and the replay-then-follow
// NDJSON stream served from it. mu also guards the embedding job's counter
// and its work's mutable fields; cond broadcasts on every appended event.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	errMsg string
	events []streamLine
}

// streamLine is one NDJSON line of a stream, held in up to two parts: head,
// and for a sweep's cell event the "stats" value, a slice of the cell's
// results-document bytes. A line with stats is head, stats and "}\n"; one
// without is head alone, its newline included. Followers share these bytes
// and only read them.
type streamLine struct {
	head, stats []byte
}

// appendLocked marshals and buffers one stream event; caller holds l.mu.
func (l *eventLog) appendLocked(ev any) {
	b, err := json.Marshal(ev)
	if err != nil {
		b = []byte(`{"type":"error","error":"event marshal failure"}`)
	}
	l.appendLineLocked(streamLine{head: append(b, '\n')})
}

// appendLineLocked buffers one stream line and wakes every follower; caller
// holds l.mu.
func (l *eventLog) appendLineLocked(line streamLine) {
	l.events = append(l.events, line)
	l.cond.Broadcast()
}

// finish ends the job, failed with err's text or done when err is nil, and
// appends the "done" event that done builds from that state and message.
func (l *eventLog) finish(err error, done func(state, errMsg string) any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state = stateDone
	if err != nil {
		l.state, l.errMsg = stateFailed, err.Error()
	}
	l.appendLocked(done(l.state, l.errMsg))
}

// serveStream replays the buffered events, then follows live ones until
// the job reaches a terminal state or ctx (the request's) is canceled,
// which wakes the waiter: a follower does not outlive its client. Writes
// happen outside the lock so a slow client never stalls the runner.
func (l *eventLog) serveStream(ctx context.Context, w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stop()

	for next, terminal := 0, false; !terminal; {
		l.mu.Lock()
		for next >= len(l.events) && l.state == stateRunning && ctx.Err() == nil {
			l.cond.Wait()
		}
		batch := l.events[next:]
		next = len(l.events)
		terminal = l.state != stateRunning || ctx.Err() != nil
		l.mu.Unlock()

		for _, ev := range batch {
			if !ev.writeTo(w) {
				return
			}
		}
		http.NewResponseController(w).Flush() // an error means w cannot flush; nothing to do
	}
}

// writeTo writes the line to w and reports whether every write succeeded.
func (ev streamLine) writeTo(w io.Writer) bool {
	if _, err := w.Write(ev.head); err != nil {
		return false
	}
	if ev.stats == nil {
		return true
	}
	if _, err := w.Write(ev.stats); err != nil {
		return false
	}
	_, err := io.WriteString(w, "}\n")
	return err == nil
}

// jobKind is one row of the kind table: what the lifecycle knows about
// sweeps or tune runs as a class. The rest sits behind each job's work.
type jobKind struct {
	prefix string                                     // ids are prefix-N, counted per kind
	noun   string                                     // what 404, 409 and 410 messages call a job
	list   string                                     // key of the list response
	parse  func(s *Server, body []byte) (work, error) // a submitted spec document to the job's work
}

var (
	sweepKind = &jobKind{"sw", "sweep", "sweeps", parseSweep}
	tuneKind  = &jobKind{"tn", "tune run", "tunes", parseTune}
)

// on binds a handler of the kind as a whole to k, for the route table.
func (k *jobKind) on(h func(*Server, *jobKind, http.ResponseWriter, *http.Request)) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) { h(s, k, w, r) }
}

// onJob binds a handler of one job to k: it finds the request's {id} among
// the retained jobs of that kind and calls h with it, or writes the 410 for
// an id that was issued and has since been dropped, or the 404.
func (k *jobKind) onJob(h func(*Server, *job, http.ResponseWriter, *http.Request)) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		j, issued := s.jobs[id], s.kinds[k].issued
		s.mu.Unlock()
		switch n := k.seq(id); {
		case j != nil && j.kind == k:
			h(s, j, w, r)
		case n > 0 && n <= issued:
			writeErr(w, http.StatusGone, errExpired, fmt.Sprintf(
				"%s %s has expired: only the newest %d finished %ss are kept; resubmit the spec, and cells still in the cache are served from it",
				k.noun, id, finishedJobs, k.noun))
		default:
			writeErr(w, http.StatusNotFound, errNotFound, "no such "+k.noun)
		}
	}
}

// seq returns N when id is k's id prefix-N, and 0 when it is no id of k.
func (k *jobKind) seq(id string) int {
	digits, ok := strings.CutPrefix(id, k.prefix+"-")
	if n, canon := decimal(digits); ok && canon {
		return n
	}
	return 0
}

// decimal parses s as a non-negative integer in canonical decimal: no sign,
// no leading zero. strconv.Atoi alone also takes "+0", "-0" and "01".
func decimal(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0 && strconv.Itoa(n) == s
}

// kindJobs is one kind's half of the job registry. A running job is always
// retained, a finished one until finishedJobs newer jobs of its kind have
// finished.
type kindJobs struct {
	issued   int    // ids issued so far, prefix-1 to prefix-issued; none is reused
	order    []*job // the retained jobs, in submission order
	finished []*job // the retained finished jobs, in finish order
}

// finish ends j: it moves j to its kind's finished jobs, drops the oldest
// of them beyond finishedJobs from the registry, and then ends j's event
// log. Trimming first means a client that has read j's "done" event finds
// the registry already trimmed. A handler that holds a dropped job serves
// it to the end.
func (s *Server) finish(j *job, err error, done func(state, errMsg string) any) {
	s.mu.Lock()
	kj := s.kinds[j.kind]
	kj.finished = append(kj.finished, j)
	if len(kj.finished) > finishedJobs {
		old := kj.finished[0]
		kj.finished = slices.Delete(kj.finished, 0, 1)
		i := slices.Index(kj.order, old)
		kj.order = slices.Delete(kj.order, i, i+1)
		delete(s.jobs, old.id)
	}
	s.mu.Unlock()
	j.finish(err, done)
}

// work is the kind-specific half of a job. run is called once, on the
// job's own goroutine: it records progress under j.mu as it goes and ends
// with one s.finish. item, status and progressText are called with j.mu
// held and given j.progress; writeResult is called without it, on a job in
// stateDone, which no longer changes.
type work interface {
	run(s *Server, j *job)
	accepted() map[string]any                     // the 202 body, less the id
	item(progress int) map[string]any             // the list entry, less id and state
	status(progress int) map[string]any           // the status body, less id, state and error
	progressText(progress int) string             // the progress, worded for the 409
	writeResult(w http.ResponseWriter, id string) // the whole 200 response
}

// job is one submitted sweep or tune run.
type job struct {
	id   string
	kind *jobKind
	work work

	eventLog
	progress int // cells finished or candidates evaluated so far
}

// Error codes returned in the {"error":{"code":...}} envelope; the table
// in docs/API.md documents each (test-enforced).
const (
	errSpecInvalid  = "spec_invalid"
	errNotFound     = "not_found"
	errExpired      = "expired"
	errNotFinished  = "not_finished"
	errBodyTooLarge = "body_too_large"
	errBadRequest   = "bad_request"
)

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes the error envelope.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":         "ok",
		"schema_version": experiments.ResultSchemaVersion,
	})
}

func (s *Server) handleRoutes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"routes": Routes()})
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Store.Stats())
}

// handleSubmit reads a spec document (bounded by MaxSpecBytes), parses it
// into the kind's work, registers the job and starts it asynchronously.
func (s *Server) handleSubmit(k *jobKind, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSpecBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, errBodyTooLarge,
				fmt.Sprintf("spec exceeds %d bytes", tooLarge.Limit))
		} else {
			writeErr(w, http.StatusBadRequest, errBadRequest, err.Error())
		}
		return
	}
	wk, err := k.parse(s, body)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, errSpecInvalid, err.Error())
		return
	}
	j := &job{kind: k, work: wk}
	j.state, j.cond = stateRunning, sync.NewCond(&j.mu)
	s.mu.Lock()
	kj := s.kinds[k]
	kj.issued++
	j.id = fmt.Sprintf("%s-%d", k.prefix, kj.issued)
	s.jobs[j.id] = j
	kj.order = append(kj.order, j)
	s.mu.Unlock()
	go wk.run(s, j)

	resp := wk.accepted()
	resp["id"] = j.id
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleList(k *jobKind, w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	order := s.kinds[k].order
	items := make([]any, 0, len(order))
	for _, j := range order {
		j.mu.Lock()
		item := j.work.item(j.progress)
		item["id"], item["state"] = j.id, j.state
		j.mu.Unlock()
		items = append(items, item)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{k.list: items})
}

func (s *Server) handleStatus(j *job, w http.ResponseWriter, _ *http.Request) {
	j.mu.Lock()
	resp := j.work.status(j.progress)
	resp["id"], resp["state"] = j.id, j.state
	if j.errMsg != "" {
		resp["error"] = j.errMsg
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStream(j *job, w http.ResponseWriter, r *http.Request) {
	j.serveStream(r.Context(), w)
}

// handleResult serves a finished job's result; a running job's progress
// or a failed job's error is the 409. It writes only after releasing j.mu:
// responses are paced by the client, and holding the lock across one would
// let a slow reader stall the job's progress callbacks.
func (s *Server) handleResult(j *job, w http.ResponseWriter, _ *http.Request) {
	j.mu.Lock()
	state, msg := j.state, j.errMsg
	if state == stateRunning {
		msg = fmt.Sprintf("%s is still running (%s)", j.kind.noun, j.work.progressText(j.progress))
	}
	j.mu.Unlock()
	if state != stateDone {
		writeErr(w, http.StatusConflict, errNotFinished, msg)
		return
	}
	j.work.writeResult(w, j.id)
}

// sweep is the work of a sweep job: the spec's cell grid and, per cell,
// what the status, results and stream handlers read. A finished sweep
// keeps bytes, not results: each cell's results-document bytes and each
// load's pooled view. The decoded results live only until they are pooled,
// and a cell's payload and trace stay in the store under the cell's key.
type sweep struct {
	*grid

	hits, failed int
	perCell      []cellStatus             // as the status route reports it
	results      []experiments.CellResult // zero until the cell's state is "done"; nil once the sweep ends
	entries      []uint64                 // the table entry each result came from, or 0; nil once the sweep ends
	cellJSON     [][]byte                 // encodeCell of each done cell's result, the table's when it holds the cell
	pooled       [][]byte                 // each load's poolView JSON, set when the sweep finishes done
}

// poolView is one load of the results route's "pooled" list.
type poolView struct {
	Load     float64          `json:"load"`
	Stats    any              `json:"stats"`
	Counters map[string]int64 `json:"counters"`
}

// cellStatus is one cell of the status response.
type cellStatus struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	State  string `json:"state"` // "pending", then "done" or "error"
	Cached *bool  `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// grid is a parsed sweep spec: the spec, its cells and their cache keys.
// Nothing writes it once built, so the sweeps of one spec share it.
type grid struct {
	spec  *experiments.SweepSpec
	cells []experiments.Cell
	keys  []string
}

// parseSweep parses a sweep spec and resolves it into cells and keys, or
// takes them from s when the spec is the one it parsed last.
func parseSweep(s *Server, body []byte) (work, error) {
	s.mu.Lock()
	g := s.lastGrid
	if s.lastSpec != string(body) {
		g = nil
	}
	s.mu.Unlock()
	if g == nil {
		spec, err := experiments.ParseSweepSpec(body)
		if err != nil {
			return nil, err
		}
		g = &grid{spec: spec, cells: spec.Cells()}
		g.keys = make([]string, len(g.cells))
		for i, c := range g.cells {
			g.keys[i] = c.Key(experiments.ResultSchemaVersion)
		}
		s.mu.Lock()
		s.lastSpec, s.lastGrid = string(body), g
		s.mu.Unlock()
	}
	n := len(g.cells)
	sw := &sweep{grid: g, perCell: make([]cellStatus, n), results: make([]experiments.CellResult, n),
		entries: make([]uint64, n), cellJSON: make([][]byte, n)}
	for i, key := range g.keys {
		sw.perCell[i] = cellStatus{Index: i, Key: key, State: "pending"}
	}
	return sw, nil
}

// streamEvent is one NDJSON line of a sweep's progress stream.
type streamEvent struct {
	Type    string  `json:"type"` // "cell" or "done"
	Index   int     `json:"index,omitempty"`
	Key     string  `json:"key,omitempty"`
	Label   string  `json:"label,omitempty"`
	Cached  *bool   `json:"cached,omitempty"`
	Done    int     `json:"done,omitempty"`
	Total   int     `json:"total,omitempty"`
	Elapsed float64 `json:"elapsed_ms,omitempty"`
	Error   string  `json:"error,omitempty"`

	State     string `json:"state,omitempty"`
	CacheHits int    `json:"cache_hits,omitempty"`
	Computed  int    `json:"computed,omitempty"`
}

// run executes the cells through experiments.RunCells over the server's
// store and table, emitting one stream event per finished cell and a final
// "done".
// RunCells' return values are not needed: every cell, started or not,
// reports through OnDone, so onCellDone has counted the failures.
func (sw *sweep) run(s *Server, j *job) {
	experiments.RunCells(s.ctx, sw.cells, sw.keys, s.cfg.Store, s.table, harness.Options{
		Parallel: s.cfg.Parallel,
		Timeout:  s.cfg.Timeout,
		OnDone:   func(p harness.Progress) { sw.onCellDone(s.table, j, p) },
	})
	var err error
	if sw.failed > 0 {
		err = fmt.Errorf("%d of %d cells failed", sw.failed, len(sw.cells))
	} else {
		sw.pool(s.table)
	}
	// Nothing reads a result or an entry id once the sweep is pooled, and a
	// failed sweep has no results route, so every outcome drops them.
	sw.results, sw.entries = nil, nil
	s.finish(j, err, func(state, errMsg string) any {
		return streamEvent{Type: "done", State: state, Total: len(sw.cells), CacheHits: sw.hits,
			Computed: len(sw.cells) - sw.hits - sw.failed, Error: errMsg}
	})
}

// onCellDone records one finished cell and emits its stream event. The
// cell's results-document bytes are fixed here: t's when its result came
// from there, encoded once otherwise. Harness progress callbacks are
// serialized, so event order is the completion order.
func (sw *sweep) onCellDone(t *table, j *job, p harness.Progress) {
	oc, _ := p.Value.(*experiments.CellOutcome) // nil when p.Err is set
	var doc, stats []byte
	if oc != nil {
		if doc, stats = t.cellJSON(sw.keys[p.Index], oc.Entry); doc == nil {
			doc, stats = encodeCell(&oc.Result)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = p.Done
	ev := streamEvent{Type: "cell", Index: p.Index, Key: sw.keys[p.Index],
		Label: p.Label, Done: p.Done, Total: p.Total,
		Elapsed: float64(p.Elapsed.Microseconds()) / 1000}
	st := &sw.perCell[p.Index]
	if p.Err != nil {
		st.State, st.Error, ev.Error = "error", p.Err.Error(), p.Err.Error()
		sw.failed++
		j.appendLocked(ev)
		return
	}
	sw.results[p.Index], sw.entries[p.Index], sw.cellJSON[p.Index] = oc.Result, oc.Entry, doc
	cached := oc.Cached
	st.State, st.Cached, ev.Cached = "done", &cached, &cached
	if cached {
		sw.hits++
	}
	// stats is Marshal's output, compact and escaped, and the event's last
	// field: the line is the event's bytes up to its closing brace, then
	// the stats, shared with the cell's doc, and "}\n" on write.
	b := mustMarshal(ev)
	head := make([]byte, 0, len(b)-1+len(`,"stats":`))
	head = append(append(head, b[:len(b)-1]...), `,"stats":`...)
	j.appendLineLocked(streamLine{head: head, stats: stats})
}

func (sw *sweep) accepted() map[string]any {
	return map[string]any{"cells": len(sw.cells), "keys": sw.keys}
}

func (sw *sweep) item(done int) map[string]any {
	return map[string]any{"cells": len(sw.cells), "done": done}
}

func (sw *sweep) status(done int) map[string]any {
	return map[string]any{
		"spec":       sw.spec,
		"total":      len(sw.cells),
		"done":       done,
		"cache_hits": sw.hits,
		"cells":      slices.Clone(sw.perCell), // written after j.mu is released
	}
}

func (sw *sweep) progressText(done int) string {
	return fmt.Sprintf("%d/%d cells", done, len(sw.cells))
}

// pool pools the finished results per load into sw.pooled, through t: a
// load whose cells all came from the entries it was last pooled from
// reuses that view. It runs on the sweep's goroutine once every cell is
// done, before finish publishes the state; the handlers that run meanwhile
// read only status rows and the store.
func (sw *sweep) pool(t *table) {
	n := len(sw.spec.Seeds)
	for li, load := range sw.spec.Loads {
		lo, hi := li*n, (li+1)*n
		sw.pooled = append(sw.pooled, t.view(load, sw.keys[lo:hi], sw.entries[lo:hi], sw.results[lo:hi]))
	}
}

// resultBufs holds buffers of written results documents for reuse.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResult renders the per-cell results and the pooled view: the bytes
// writeJSON would write for {"id", "state", "cache_hits", "pooled",
// "cells"}, built from each load's JSON and each cell's. Ids and keys
// (sw-N, hex digests) need no JSON escaping. The document is built in a
// reused buffer: Write has consumed it when it returns.
func (sw *sweep) writeResult(w http.ResponseWriter, id string) {
	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	b := append((*buf)[:0], `{"cache_hits":`...)
	b = strconv.AppendInt(b, int64(sw.hits), 10)
	b = append(b, `,"cells":[`...)
	for i, doc := range sw.cellJSON {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"key":"`...)
		b = append(b, sw.keys[i]...)
		b = append(b, `","cached":`...)
		b = strconv.AppendBool(b, *sw.perCell[i].Cached)
		b = append(b, ',')
		b = append(b, doc[1:]...) // the fields of doc's object, and its end
	}
	b = append(b, `],"id":"`...)
	b = append(b, id...)
	b = append(b, `","pooled":[`...)
	for li, p := range sw.pooled {
		if li > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	b = append(b, `],"state":"`+stateDone+`"}`+"\n"...)
	*buf = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// encodeCell returns the fields a results document gives a cell's result,
// as one JSON object, {"cell":...,"stats":...,"counters":...}, and the
// "stats" value within it. doc is allocated at its exact size: finished
// sweeps and the table keep it.
func encodeCell(r *experiments.CellResult) (doc, stats []byte) {
	cell, st := mustMarshal(r.Cell), mustMarshal(r.Stats)
	counters := mustMarshal(counterMap(r.Drops, r.Marks, r.Timeouts, r.Retransmits,
		r.Completed, r.Failed, r.Injected))
	doc = make([]byte, 0, len(`{"cell":,"stats":,"counters":}`)+len(cell)+len(st)+len(counters))
	doc = append(append(doc, `{"cell":`...), cell...)
	doc = append(doc, `,"stats":`...)
	lo := len(doc)
	doc = append(doc, st...)
	hi := len(doc)
	doc = append(append(doc, `,"counters":`...), counters...)
	doc = append(doc, '}')
	return doc, doc[lo:hi:hi]
}

// mustMarshal is json.Marshal of a value that always encodes: results and
// stream events hold strings and finite numbers, results decoded from JSON
// or pooled from those.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: encoding a result: %v", err))
	}
	return b
}

// counterMap renders the seven run counters under their API names.
func counterMap(drops, marks, timeouts, retransmits int64, completed, failed, injected int) map[string]int64 {
	return map[string]int64{
		"drops": drops, "marks": marks, "timeouts": timeouts, "retransmits": retransmits,
		"completed": int64(completed), "failed": int64(failed), "injected": int64(injected),
	}
}

// handleCellTrace is the one route only sweeps have. A finished sweep
// holds no trace: the route reads the cell's payload from the store by its
// key, outside j.mu, and answers 410 when the store no longer holds it
// (evicted, or never stored because its write failed).
func (s *Server) handleCellTrace(j *job, w http.ResponseWriter, r *http.Request) {
	sw := j.work.(*sweep)
	idx, ok := decimal(r.PathValue("index"))
	if !ok || idx >= len(sw.cells) {
		writeErr(w, http.StatusNotFound, errNotFound, "no such cell index")
		return
	}
	j.mu.Lock()
	st := sw.perCell[idx]
	j.mu.Unlock()
	switch {
	case st.State == "pending":
		writeErr(w, http.StatusConflict, errNotFinished, "cell has not finished")
		return
	case st.State == "error":
		writeErr(w, http.StatusConflict, errNotFinished, st.Error)
		return
	case sw.cells[idx].Trace == nil:
		writeErr(w, http.StatusNotFound, errNotFound,
			"cell was run without tracing (set \"trace\" in the sweep spec)")
		return
	}
	// Get's one error, a malformed key, cannot happen for a cell key. A
	// payload that does not decode is no result of this cell: the store
	// does not hold the cell either way.
	if payload, ok, _ := s.cfg.Store.Get(st.Key); ok {
		if res, err := experiments.DecodeCellResult(payload); err == nil {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, res.TraceJSONL)
			return
		}
	}
	writeErr(w, http.StatusGone, errExpired,
		"the result cache no longer holds this cell; resubmit the spec to compute it again")
}
