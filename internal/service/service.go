// Package service is the ecnsharpd experiment server: a long-running
// HTTP/JSON daemon that accepts sweep specs (the same schema `ecnsim
// -spec` reads), fans the resolved cells into the harness worker pool,
// streams per-cell progress and results over chunked NDJSON responses,
// and backs every cell with the content-addressed result cache — so a
// sweep that resubmits known (config, seed) cells is served from disk,
// byte-identical to recomputation, and concurrent identical submissions
// share one execution.
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

// Server executes sweeps against the cache and serves the HTTP API. Use
// New to build one and Handler to mount it.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	sweeps map[string]*sweep
	order  []string
	nextID int

	tunes      map[string]*tuneRun
	tuneOrder  []string
	nextTuneID int
}

// Route describes one registered API endpoint: the method, the
// http.ServeMux pattern it is mounted at, and a one-line summary. The
// full route table is returned by Routes and served at GET /v1/routes;
// docs/API.md documents every entry (test-enforced).
type Route struct {
	// Method is the HTTP method.
	Method string `json:"method"`
	// Pattern is the ServeMux pattern, with {wildcards}.
	Pattern string `json:"pattern"`
	// Brief is a one-line description.
	Brief string `json:"brief"`
}

// Routes returns the daemon's complete route table, in docs order.
func Routes() []Route {
	return []Route{
		{"GET", "/healthz", "liveness probe; reports the result schema version"},
		{"GET", "/v1/routes", "this route table, machine-readable"},
		{"POST", "/v1/sweeps", "submit a sweep spec; returns the sweep id and per-cell cache keys"},
		{"GET", "/v1/sweeps", "list submitted sweeps and their states"},
		{"GET", "/v1/sweeps/{id}", "sweep status: per-cell states, cache hits, progress"},
		{"GET", "/v1/sweeps/{id}/stream", "chunked NDJSON stream of per-cell completion events"},
		{"GET", "/v1/sweeps/{id}/results", "pooled per-load statistics plus per-cell results (when finished)"},
		{"GET", "/v1/sweeps/{id}/cells/{index}/trace", "stored JSONL event trace of one cell"},
		{"GET", "/v1/cache/stats", "result-cache counters and occupancy"},
		{"POST", "/v1/tune", "submit a tune spec; starts the searcher and returns the run id"},
		{"GET", "/v1/tune", "list submitted tune runs and their states"},
		{"GET", "/v1/tune/{id}", "tune run status: state, spec, evaluations so far"},
		{"GET", "/v1/tune/{id}/stream", "chunked NDJSON stream of per-candidate evaluation events"},
		{"GET", "/v1/tune/{id}/result", "full TuneResult document (when finished)"},
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
		ctx:    ctx,
		cancel: cancel,
		sweeps: make(map[string]*sweep),
		tunes:  make(map[string]*tuneRun),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/routes", s.handleRoutes)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/cells/{index}/trace", s.handleCellTrace)
	s.mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	s.mux.HandleFunc("POST /v1/tune", s.handleTuneSubmit)
	s.mux.HandleFunc("GET /v1/tune", s.handleTuneList)
	s.mux.HandleFunc("GET /v1/tune/{id}", s.handleTuneStatus)
	s.mux.HandleFunc("GET /v1/tune/{id}/stream", s.handleTuneStream)
	s.mux.HandleFunc("GET /v1/tune/{id}/result", s.handleTuneResult)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every running sweep's context. In-flight requests drain
// under the http.Server's own shutdown; Close only stops the simulations.
func (s *Server) Close() { s.cancel() }

// sweepState enumerates a sweep's lifecycle; states are serialized into
// every status payload.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// eventLog is the progress log of one job — a sweep or a tune run — and
// the replay-then-follow NDJSON stream served from it. mu also guards the
// embedding job's own mutable fields; cond broadcasts on every appended
// event, and the terminal state is set under the same critical section
// that appends the final "done" event.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	errMsg string
	events []json.RawMessage
}

// start marks the job running; call it before the job is published.
func (l *eventLog) start() {
	l.state = stateRunning
	l.cond = sync.NewCond(&l.mu)
}

// appendLocked marshals and buffers one stream event and wakes every
// follower; caller holds l.mu.
func (l *eventLog) appendLocked(ev any) {
	b, err := json.Marshal(ev)
	if err != nil {
		b = []byte(`{"type":"error","error":"event marshal failure"}`)
	}
	l.events = append(l.events, b)
	l.cond.Broadcast()
}

// serveStream replays the buffered events, then follows live ones until
// the job reaches a terminal state. Writes happen outside the lock so a
// slow client never stalls the runner.
func (l *eventLog) serveStream(w http.ResponseWriter) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	for next, terminal := 0, false; !terminal; {
		l.mu.Lock()
		for next >= len(l.events) && l.state == stateRunning {
			l.cond.Wait()
		}
		batch := l.events[next:]
		next = len(l.events)
		terminal = l.state != stateRunning
		l.mu.Unlock()

		for _, ev := range batch {
			if _, err := w.Write(append(ev, '\n')); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// sweep is one submitted sweep and its execution state.
type sweep struct {
	id    string
	spec  *experiments.SweepSpec
	cells []experiments.Cell
	keys  []string

	eventLog
	done     int
	hits     int
	outcomes []*experiments.CellOutcome // indexed by cell, nil until finished
}

// streamEvent is one NDJSON line of the progress stream.
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

	CellStats json.RawMessage `json:"stats,omitempty"`
	State     string          `json:"state,omitempty"`
	CacheHits int             `json:"cache_hits,omitempty"`
	Computed  int             `json:"computed,omitempty"`
}

// Submit resolves a normalized sweep spec into cells, registers the sweep,
// and starts executing it asynchronously. It is the programmatic form of
// POST /v1/sweeps.
func (s *Server) Submit(spec *experiments.SweepSpec) *sweep {
	cells := spec.Cells()
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key(experiments.ResultSchemaVersion)
	}
	s.mu.Lock()
	s.nextID++
	sw := &sweep{
		id:       fmt.Sprintf("sw-%d", s.nextID),
		spec:     spec,
		cells:    cells,
		keys:     keys,
		outcomes: make([]*experiments.CellOutcome, len(cells)),
	}
	sw.start()
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.mu.Unlock()
	go s.runSweep(sw)
	return sw
}

// runSweep executes the sweep's cells through experiments.RunCells over
// the server's store, emitting one stream event per finished cell and a
// final "done" event.
func (s *Server) runSweep(sw *sweep) {
	outcomes, _ := experiments.RunCells(s.ctx, sw.cells, s.cfg.Store, harness.Options{
		Parallel: s.cfg.Parallel,
		Timeout:  s.cfg.Timeout,
		OnDone:   func(p harness.Progress) { s.onCellDone(sw, p) },
	})
	failed := 0
	for _, oc := range outcomes {
		if oc.Err != nil {
			failed++
		}
	}

	sw.mu.Lock()
	if failed > 0 {
		sw.state = stateFailed
		sw.errMsg = fmt.Sprintf("%d of %d cells failed", failed, len(sw.cells))
	} else {
		sw.state = stateDone
	}
	ev := streamEvent{Type: "done", State: sw.state, Total: len(sw.cells),
		CacheHits: sw.hits, Computed: len(sw.cells) - sw.hits - failed, Error: sw.errMsg}
	sw.appendLocked(ev)
	sw.mu.Unlock()
}

// onCellDone records one finished cell and emits its stream event.
// Harness progress callbacks are serialized, so event order is the
// completion order.
func (s *Server) onCellDone(sw *sweep, p harness.Progress) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.done = p.Done
	ev := streamEvent{Type: "cell", Index: p.Index, Key: sw.keys[p.Index],
		Label: p.Label, Done: p.Done, Total: p.Total,
		Elapsed: float64(p.Elapsed.Microseconds()) / 1000}
	if p.Err != nil {
		sw.outcomes[p.Index] = &experiments.CellOutcome{Err: p.Err}
		ev.Error = p.Err.Error()
	} else {
		oc := p.Value.(*experiments.CellOutcome)
		sw.outcomes[p.Index] = oc
		ev.Cached = &oc.Cached
		if oc.Cached {
			sw.hits++
		}
		if b, err := json.Marshal(oc.Result.Stats); err == nil {
			ev.CellStats = b
		}
	}
	sw.appendLocked(ev)
}

// lookup finds a sweep by id.
func (s *Server) lookup(id string) *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// --- handlers ---

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
	enc := json.NewEncoder(w)
	enc.Encode(v)
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

// readSpecBody reads a submitted spec document, bounded by MaxSpecBytes. On
// failure it writes the error response and reports false.
func (s *Server) readSpecBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSpecBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, errBodyTooLarge,
				fmt.Sprintf("spec exceeds %d bytes", tooLarge.Limit))
		} else {
			writeErr(w, http.StatusBadRequest, errBadRequest, err.Error())
		}
		return nil, false
	}
	return body, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readSpecBody(w, r)
	if !ok {
		return
	}
	spec, err := experiments.ParseSweepSpec(body)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, errSpecInvalid, err.Error())
		return
	}
	sw := s.Submit(spec)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":    sw.id,
		"cells": len(sw.cells),
		"keys":  sw.keys,
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	type item struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Cells int    `json:"cells"`
		Done  int    `json:"done"`
	}
	items := make([]item, 0, len(s.order))
	for _, id := range s.order {
		sw := s.sweeps[id]
		sw.mu.Lock()
		items = append(items, item{ID: sw.id, State: sw.state, Cells: len(sw.cells), Done: sw.done})
		sw.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": items})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		writeErr(w, http.StatusNotFound, errNotFound, "no such sweep")
		return
	}
	type cellStatus struct {
		Index  int    `json:"index"`
		Key    string `json:"key"`
		State  string `json:"state"`
		Cached *bool  `json:"cached,omitempty"`
		Error  string `json:"error,omitempty"`
	}
	sw.mu.Lock()
	cells := make([]cellStatus, len(sw.cells))
	for i := range sw.cells {
		cs := cellStatus{Index: i, Key: sw.keys[i], State: "pending"}
		if oc := sw.outcomes[i]; oc != nil {
			if oc.Err != nil {
				cs.State = "error"
				cs.Error = oc.Err.Error()
			} else {
				cs.State = "done"
				cached := oc.Cached
				cs.Cached = &cached
			}
		}
		cells[i] = cs
	}
	resp := map[string]any{
		"id":         sw.id,
		"state":      sw.state,
		"spec":       sw.spec,
		"total":      len(sw.cells),
		"done":       sw.done,
		"cache_hits": sw.hits,
		"cells":      cells,
	}
	if sw.errMsg != "" {
		resp["error"] = sw.errMsg
	}
	sw.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		writeErr(w, http.StatusNotFound, errNotFound, "no such sweep")
		return
	}
	sw.serveStream(w)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		writeErr(w, http.StatusNotFound, errNotFound, "no such sweep")
		return
	}
	// Snapshot everything under the lock and write only after releasing
	// it: writeErr/writeJSON are paced by the client, and holding sw.mu
	// across them would let one slow reader stall every onCellDone.
	sw.mu.Lock()
	switch sw.state {
	case stateRunning:
		msg := fmt.Sprintf("sweep is still running (%d/%d cells)", sw.done, len(sw.cells))
		sw.mu.Unlock()
		writeErr(w, http.StatusConflict, errNotFinished, msg)
		return
	case stateFailed:
		msg := sw.errMsg
		sw.mu.Unlock()
		writeErr(w, http.StatusConflict, errNotFinished, msg)
		return
	}

	type cellView struct {
		Index    int              `json:"index"`
		Key      string           `json:"key"`
		Cached   bool             `json:"cached"`
		Cell     experiments.Cell `json:"cell"`
		Stats    any              `json:"stats"`
		Counters map[string]int64 `json:"counters"`
	}
	type poolView struct {
		Load     float64          `json:"load"`
		Stats    any              `json:"stats"`
		Counters map[string]int64 `json:"counters"`
	}
	cells := make([]cellView, len(sw.cells))
	results := make([]experiments.CellResult, len(sw.cells))
	for i, oc := range sw.outcomes {
		res := oc.Result
		results[i] = res
		cells[i] = cellView{
			Index: i, Key: sw.keys[i], Cached: oc.Cached, Cell: res.Cell, Stats: res.Stats,
			Counters: counterMap(res.Drops, res.Marks, res.Timeouts, res.Retransmits,
				res.Completed, res.Failed, res.Injected),
		}
	}
	pools := make([]poolView, 0, len(sw.spec.Loads))
	for _, p := range sw.spec.Pool(results) {
		pools = append(pools, poolView{Load: p.Load, Stats: p.Stats,
			Counters: counterMap(p.Drops, p.Marks, p.Timeouts, p.Retransmits,
				p.Completed, p.Failed, p.Injected)})
	}
	resp := map[string]any{
		"id":         sw.id,
		"state":      sw.state,
		"cache_hits": sw.hits,
		"pooled":     pools,
		"cells":      cells,
	}
	sw.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// counterMap renders the seven run counters under their API names.
func counterMap(drops, marks, timeouts, retransmits int64, completed, failed, injected int) map[string]int64 {
	return map[string]int64{
		"drops": drops, "marks": marks, "timeouts": timeouts, "retransmits": retransmits,
		"completed": int64(completed), "failed": int64(failed), "injected": int64(injected),
	}
}

func (s *Server) handleCellTrace(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		writeErr(w, http.StatusNotFound, errNotFound, "no such sweep")
		return
	}
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil || idx < 0 || idx >= len(sw.cells) {
		writeErr(w, http.StatusNotFound, errNotFound, "no such cell index")
		return
	}
	sw.mu.Lock()
	oc := sw.outcomes[idx]
	sw.mu.Unlock()
	if oc == nil {
		writeErr(w, http.StatusConflict, errNotFinished, "cell has not finished")
		return
	}
	if oc.Err != nil {
		writeErr(w, http.StatusConflict, errNotFinished, oc.Err.Error())
		return
	}
	if oc.Result.TraceJSONL == "" {
		writeErr(w, http.StatusNotFound, errNotFound,
			"cell was run without tracing (set \"trace\" in the sweep spec)")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, oc.Result.TraceJSONL)
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Store.Stats())
}
