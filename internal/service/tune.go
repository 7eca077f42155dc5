package service

import (
	"fmt"
	"net/http"

	"ecnsharp/internal/tune"
)

// tuneRun is the work of a tune job: the spec, and the canonical Result
// bytes once the search has finished.
type tuneRun struct {
	spec   *tune.Spec
	result []byte
}

// parseTune parses a tune spec; tune.ParseSpec returns it normalized.
func parseTune(_ *Server, body []byte) (work, error) {
	spec, err := tune.ParseSpec(body)
	if err != nil {
		return nil, err
	}
	return &tuneRun{spec: spec}, nil
}

// run drives tune.Run with progress events forwarded into the job's
// stream; every cell goes through the server's cache store, so re-tuning
// overlapping specs is served from disk.
func (tr *tuneRun) run(s *Server, j *job) {
	res, err := tune.Run(s.ctx, tr.spec, tune.Options{
		Parallel: s.cfg.Parallel,
		Timeout:  s.cfg.Timeout,
		Store:    s.cfg.Store,
		OnProgress: func(p tune.Progress) {
			if p.Type == "done" {
				// The terminal event is finish's, with the state.
				return
			}
			j.mu.Lock()
			j.progress = p.Evals
			j.appendLocked(p)
			j.mu.Unlock()
		},
	})
	if err == nil {
		tr.result, err = res.Encode()
	}
	s.finish(j, err, func(state, errMsg string) any {
		if err != nil {
			return map[string]any{"type": "done", "state": state, "error": errMsg}
		}
		return map[string]any{
			"type": "done", "state": state,
			"evals": len(res.Evals), "best_index": res.Best.Index,
			"best_score": res.Best.Score, "default_score": res.Default.Score,
			"improvement": res.Improvement,
		}
	})
}

func (tr *tuneRun) accepted() map[string]any {
	return map[string]any{
		"searcher": tr.spec.Searcher,
		"budget":   tr.spec.Budget,
		"space":    tr.spec.Space,
		"cells":    len(tr.spec.Sweep.Loads) * len(tr.spec.Sweep.Seeds),
	}
}

func (tr *tuneRun) item(evals int) map[string]any {
	return map[string]any{"evals": evals}
}

func (tr *tuneRun) status(evals int) map[string]any {
	return map[string]any{"spec": tr.spec, "evals": evals, "budget": tr.spec.Budget}
}

func (tr *tuneRun) progressText(evals int) string {
	return fmt.Sprintf("%d evaluations so far", evals)
}

// writeResult writes the Result bytes as encoded, not re-marshaled: they
// are byte-identical across reruns of the same spec.
func (tr *tuneRun) writeResult(w http.ResponseWriter, _ string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(tr.result)
}
