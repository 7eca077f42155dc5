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

	// The job registry: every job by id, and each kind's jobs in
	// submission order (the length is the kind's id counter).
	mu    sync.Mutex
	jobs  map[string]*job
	order map[*jobKind][]*job

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
		order:  make(map[*jobKind][]*job),
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
	events [][]byte // each one NDJSON line, newline included
}

// appendLocked marshals and buffers one stream event and wakes every
// follower; caller holds l.mu. The newline is stored with the event, once:
// followers share these bytes and only read them.
func (l *eventLog) appendLocked(ev any) {
	b, err := json.Marshal(ev)
	if err != nil {
		b = []byte(`{"type":"error","error":"event marshal failure"}`)
	}
	l.events = append(l.events, append(b, '\n'))
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
			if _, err := w.Write(ev); err != nil {
				return
			}
		}
		http.NewResponseController(w).Flush() // an error means w cannot flush; nothing to do
	}
}

// jobKind is one row of the kind table: what the lifecycle knows about
// sweeps or tune runs as a class. The rest sits behind each job's work.
type jobKind struct {
	prefix string                          // ids are prefix-N, counted per kind
	noun   string                          // what 404 and 409 messages call a job
	list   string                          // key of the list response
	parse  func(body []byte) (work, error) // a submitted spec document to the job's work
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
// the jobs of that kind and calls h with it, or writes the 404.
func (k *jobKind) onJob(h func(*Server, *job, http.ResponseWriter, *http.Request)) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		j := s.jobs[r.PathValue("id")]
		s.mu.Unlock()
		if j == nil || j.kind != k {
			writeErr(w, http.StatusNotFound, errNotFound, "no such "+k.noun)
			return
		}
		h(s, j, w, r)
	}
}

// work is the kind-specific half of a job. run is called once, on the
// job's own goroutine: it records progress under j.mu as it goes and ends
// with one j.finish. item, status and progressText are called with j.mu
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
	wk, err := k.parse(body)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, errSpecInvalid, err.Error())
		return
	}
	j := &job{kind: k, work: wk}
	j.state, j.cond = stateRunning, sync.NewCond(&j.mu)
	s.mu.Lock()
	j.id = fmt.Sprintf("%s-%d", k.prefix, len(s.order[k])+1)
	s.jobs[j.id] = j
	s.order[k] = append(s.order[k], j)
	s.mu.Unlock()
	go wk.run(s, j)

	resp := wk.accepted()
	resp["id"] = j.id
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleList(k *jobKind, w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	items := make([]any, 0, len(s.order[k]))
	for _, j := range s.order[k] {
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
// what the status, results and trace handlers read. A result's encoded
// bytes are not kept; the store holds them under the cell's key. A
// finished sweep keeps its answer, not its inputs: the per-load pooled
// view, and each result without its records.
type sweep struct {
	spec  *experiments.SweepSpec
	cells []experiments.Cell
	keys  []string

	hits, failed int
	perCell      []cellStatus             // as the status route reports it
	results      []experiments.CellResult // zero until the cell's state is "done"
	entries      []uint64                 // the table entry each result came from, or 0
	cellJSON     [][]byte                 // the table's encodeCell of each result, or nil
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

// parseSweep parses a sweep spec and resolves it into cells and keys.
func parseSweep(body []byte) (work, error) {
	spec, err := experiments.ParseSweepSpec(body)
	if err != nil {
		return nil, err
	}
	cells := spec.Cells()
	sw := &sweep{spec: spec, cells: cells, keys: make([]string, len(cells)),
		perCell: make([]cellStatus, len(cells)), results: make([]experiments.CellResult, len(cells)),
		entries: make([]uint64, len(cells)), cellJSON: make([][]byte, len(cells))}
	for i, c := range cells {
		sw.keys[i] = c.Key(experiments.ResultSchemaVersion)
		sw.perCell[i] = cellStatus{Index: i, Key: sw.keys[i], State: "pending"}
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

	CellStats any    `json:"stats,omitempty"`
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
	// Nothing reads a record or an entry id once the sweep is pooled, and
	// a failed sweep has no results route, so every outcome drops them.
	for i := range sw.results {
		sw.results[i].Records = nil
	}
	sw.entries = nil
	j.finish(err, func(state, errMsg string) any {
		return streamEvent{Type: "done", State: state, Total: len(sw.cells), CacheHits: sw.hits,
			Computed: len(sw.cells) - sw.hits - sw.failed, Error: errMsg}
	})
}

// onCellDone records one finished cell and emits its stream event, with
// the cell's JSON from t when its result came from there. Harness progress
// callbacks are serialized, so event order is the completion order.
func (sw *sweep) onCellDone(t *table, j *job, p harness.Progress) {
	oc, _ := p.Value.(*experiments.CellOutcome) // nil when p.Err is set
	var doc, stats []byte
	if oc != nil {
		doc, stats = t.cellJSON(sw.keys[p.Index], oc.Entry)
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
	} else {
		sw.results[p.Index], sw.entries[p.Index], sw.cellJSON[p.Index] = oc.Result, oc.Entry, doc
		cached := oc.Cached
		st.State, st.Cached, ev.Cached = "done", &cached, &cached
		if cached {
			sw.hits++
		}
		ev.CellStats = &sw.results[p.Index].Stats
		if stats != nil {
			ev.CellStats = json.RawMessage(stats)
		}
	}
	j.appendLocked(ev)
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
// read only status rows and traces.
func (sw *sweep) pool(t *table) {
	n := len(sw.spec.Seeds)
	for li, load := range sw.spec.Loads {
		lo, hi := li*n, (li+1)*n
		sw.pooled = append(sw.pooled, t.view(load, sw.keys[lo:hi], sw.entries[lo:hi], sw.results[lo:hi]))
	}
}

// writeResult renders the per-cell results and the pooled view: the bytes
// writeJSON would write for {"id", "state", "cache_hits", "pooled",
// "cells"}, built from each load's JSON and each cell's, the table's when
// the cell came from there and encoded here otherwise. Ids and keys
// (sw-N, hex digests) need no JSON escaping.
func (sw *sweep) writeResult(w http.ResponseWriter, id string) {
	docs := slices.Clone(sw.cellJSON)
	size := 64 + len(id)
	for i := range docs {
		if docs[i] == nil {
			docs[i], _ = encodeCell(&sw.results[i])
		}
		size += 48 + len(sw.keys[i]) + len(docs[i])
	}
	for _, p := range sw.pooled {
		size += 1 + len(p)
	}
	b := append(make([]byte, 0, size), `{"cache_hits":`...)
	b = strconv.AppendInt(b, int64(sw.hits), 10)
	b = append(b, `,"cells":[`...)
	for i, doc := range docs {
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// encodeCell returns the fields a results document gives a cell's result,
// as one JSON object, {"cell":...,"stats":...,"counters":...}, and the
// "stats" value within it.
func encodeCell(r *experiments.CellResult) (doc, stats []byte) {
	doc = append([]byte(`{"cell":`), mustMarshal(r.Cell)...)
	doc = append(doc, `,"stats":`...)
	lo := len(doc)
	doc = append(doc, mustMarshal(r.Stats)...)
	hi := len(doc)
	doc = append(doc, `,"counters":`...)
	doc = append(doc, mustMarshal(counterMap(r.Drops, r.Marks, r.Timeouts, r.Retransmits,
		r.Completed, r.Failed, r.Injected))...)
	doc = append(doc, '}')
	return doc, doc[lo:hi:hi]
}

// mustMarshal is json.Marshal of a value that always encodes: results hold
// strings and finite numbers, decoded from JSON or pooled from those.
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

// handleCellTrace is the one route only sweeps have.
func (s *Server) handleCellTrace(j *job, w http.ResponseWriter, r *http.Request) {
	sw := j.work.(*sweep)
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil || idx < 0 || idx >= len(sw.cells) {
		writeErr(w, http.StatusNotFound, errNotFound, "no such cell index")
		return
	}
	j.mu.Lock()
	st, trace := sw.perCell[idx], sw.results[idx].TraceJSONL
	j.mu.Unlock()
	switch {
	case st.State == "pending":
		writeErr(w, http.StatusConflict, errNotFinished, "cell has not finished")
	case st.State == "error":
		writeErr(w, http.StatusConflict, errNotFinished, st.Error)
	case trace == "":
		writeErr(w, http.StatusNotFound, errNotFound,
			"cell was run without tracing (set \"trace\" in the sweep spec)")
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, trace)
	}
}
