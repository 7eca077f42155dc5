package service

import (
	"fmt"
	"net/http"

	"ecnsharp/internal/tune"
)

// tuneRun is one submitted tune and its execution state, the tuner-side
// sibling of sweep: the shared progress log, plus the final Result once
// finished.
type tuneRun struct {
	id   string
	spec *tune.Spec

	eventLog
	evals  int
	result []byte // canonical Result bytes when state == done
}

// SubmitTune validates nothing further (the spec arrives normalized from
// tune.ParseSpec), registers the run and starts the tuner asynchronously.
// It is the programmatic form of POST /v1/tune.
func (s *Server) SubmitTune(spec *tune.Spec) *tuneRun {
	s.mu.Lock()
	s.nextTuneID++
	tr := &tuneRun{
		id:   fmt.Sprintf("tn-%d", s.nextTuneID),
		spec: spec,
	}
	tr.start()
	s.tunes[tr.id] = tr
	s.tuneOrder = append(s.tuneOrder, tr.id)
	s.mu.Unlock()
	go s.runTune(tr)
	return tr
}

// runTune drives tune.Run with progress events forwarded into the run's
// stream buffer; every cell goes through the server's cache store, so
// re-tuning overlapping specs is served from disk.
func (s *Server) runTune(tr *tuneRun) {
	res, err := tune.Run(s.ctx, tr.spec, tune.Options{
		Parallel: s.cfg.Parallel,
		Timeout:  s.cfg.Timeout,
		Store:    s.cfg.Store,
		OnProgress: func(p tune.Progress) {
			if p.Type == "done" {
				// The terminal event is emitted below, with the state.
				return
			}
			tr.mu.Lock()
			tr.evals = p.Evals
			tr.appendLocked(p)
			tr.mu.Unlock()
		},
	})

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err != nil {
		tr.state = stateFailed
		tr.errMsg = err.Error()
		tr.appendLocked(map[string]any{"type": "done", "state": tr.state, "error": tr.errMsg})
		return
	}
	b, err := res.Encode()
	if err != nil {
		tr.state = stateFailed
		tr.errMsg = err.Error()
		tr.appendLocked(map[string]any{"type": "done", "state": tr.state, "error": tr.errMsg})
		return
	}
	tr.state = stateDone
	tr.result = b
	tr.evals = len(res.Evals)
	tr.appendLocked(map[string]any{
		"type": "done", "state": tr.state,
		"evals": len(res.Evals), "best_index": res.Best.Index,
		"best_score": res.Best.Score, "default_score": res.Default.Score,
		"improvement": res.Improvement,
	})
}

// lookupTune finds a tune run by id.
func (s *Server) lookupTune(id string) *tuneRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tunes[id]
}

func (s *Server) handleTuneSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readSpecBody(w, r)
	if !ok {
		return
	}
	spec, err := tune.ParseSpec(body)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, errSpecInvalid, err.Error())
		return
	}
	tr := s.SubmitTune(spec)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":       tr.id,
		"searcher": spec.Searcher,
		"budget":   spec.Budget,
		"space":    spec.Space,
		"cells":    len(spec.Sweep.Loads) * len(spec.Sweep.Seeds),
	})
}

func (s *Server) handleTuneList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	type item struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Evals int    `json:"evals"`
	}
	items := make([]item, 0, len(s.tuneOrder))
	for _, id := range s.tuneOrder {
		tr := s.tunes[id]
		tr.mu.Lock()
		items = append(items, item{ID: tr.id, State: tr.state, Evals: tr.evals})
		tr.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"tunes": items})
}

func (s *Server) handleTuneStatus(w http.ResponseWriter, r *http.Request) {
	tr := s.lookupTune(r.PathValue("id"))
	if tr == nil {
		writeErr(w, http.StatusNotFound, errNotFound, "no such tune run")
		return
	}
	tr.mu.Lock()
	resp := map[string]any{
		"id":     tr.id,
		"state":  tr.state,
		"spec":   tr.spec,
		"evals":  tr.evals,
		"budget": tr.spec.Budget,
	}
	if tr.errMsg != "" {
		resp["error"] = tr.errMsg
	}
	tr.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTuneStream(w http.ResponseWriter, r *http.Request) {
	tr := s.lookupTune(r.PathValue("id"))
	if tr == nil {
		writeErr(w, http.StatusNotFound, errNotFound, "no such tune run")
		return
	}
	tr.serveStream(w)
}

func (s *Server) handleTuneResult(w http.ResponseWriter, r *http.Request) {
	tr := s.lookupTune(r.PathValue("id"))
	if tr == nil {
		writeErr(w, http.StatusNotFound, errNotFound, "no such tune run")
		return
	}
	tr.mu.Lock()
	state, errMsg, result := tr.state, tr.errMsg, tr.result
	evals := tr.evals
	tr.mu.Unlock()
	switch state {
	case stateRunning:
		writeErr(w, http.StatusConflict, errNotFinished,
			fmt.Sprintf("tune run is still running (%d evaluations so far)", evals))
		return
	case stateFailed:
		writeErr(w, http.StatusConflict, errNotFinished, errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(result)
}
