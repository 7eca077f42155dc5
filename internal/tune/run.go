package tune

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/harness"
)

// ResultSchemaVersion tags serialized Results; bump it when the encoding
// or tuner semantics change.
const ResultSchemaVersion = "ecnsharp-tune-v1"

// maxRounds is a hard backstop on searcher rounds, far above anything the
// budget admits; it guarantees termination against a misbehaving Searcher
// that keeps proposing already-memoized vectors.
const maxRounds = 10_000

// Options configures one Run. None of it leaks into the Result bytes:
// parallelism, caching and progress reporting are wall-clock concerns,
// and the determinism test pins Result byte-identical across them.
type Options struct {
	// Parallel sizes the harness worker pool evaluating candidate cells
	// (<= 0 means 1).
	Parallel int
	// Timeout bounds each cell's wall-clock run (0 = none).
	Timeout time.Duration
	// Store, when non-nil, routes every cell through the content-addressed
	// cache via its Cell.Key, so re-tuning overlapping specs never
	// recomputes a cell.
	Store *cache.Store
	// OnProgress, when non-nil, observes evaluation events as they
	// complete, in evaluation order. It is called from the Run goroutine,
	// never concurrently.
	OnProgress func(Progress)
}

// Progress is one tuner progress event, NDJSON-encodable for streaming.
type Progress struct {
	// Type is "eval" after each scored candidate, then one final "done".
	Type string `json:"type"`
	// Round is the searcher round the event belongs to (0 = the anchor).
	Round int `json:"round"`
	// Index, Vector and Score describe the evaluation ("eval" only).
	Index  int       `json:"index,omitempty"`
	Vector []float64 `json:"vector,omitempty"`
	Score  float64   `json:"score,omitempty"`
	// Cells counts the candidate's simulator cells; CachedCells of them
	// were served from the store.
	Cells       int `json:"cells,omitempty"`
	CachedCells int `json:"cached_cells,omitempty"`
	// Evals and Budget track overall progress; BestScore/BestIndex the
	// incumbent.
	Evals     int     `json:"evals"`
	Budget    int     `json:"budget"`
	BestScore float64 `json:"best_score"`
	BestIndex int     `json:"best_index"`
}

// Eval is one scored candidate in the Result history.
type Eval struct {
	// Index is the evaluation order (0 = the paper-default anchor).
	Index int `json:"index"`
	// Vector is the candidate, flattened per Space.
	Vector []float64 `json:"vector"`
	// Score is the objective value (lower is better).
	Score float64 `json:"score"`
}

// Result is the reproducible outcome of a tune run: the full evaluation
// history plus the winner. It is a pure function of (Spec, Spec.Seed) —
// no wall-clock times, cache-hit flags or worker counts — so the same
// spec re-encodes byte-identically at any parallelism, warm or cold.
type Result struct {
	// SchemaVersion records the ResultSchemaVersion that produced this.
	SchemaVersion string `json:"schema_version"`
	// Spec echoes the normalized spec that ran (Space resolved).
	Spec Spec `json:"spec"`
	// Evals is the full history in evaluation order; Evals[0] is always
	// the paper-default anchor.
	Evals []Eval `json:"evals"`
	// Rounds is the number of searcher rounds consumed.
	Rounds int `json:"rounds"`
	// Default is the anchor evaluation (== Evals[0]), the hand-derived
	// baseline every tuned result is compared against.
	Default Eval `json:"default"`
	// Best is the lowest-scoring evaluation (earliest index on ties).
	// Because the anchor is always evaluated, Best.Score <= Default.Score
	// by construction.
	Best Eval `json:"best"`
	// BestTuned is Best.Vector materialized as the per-scope parameter
	// assignment a Cell carries.
	BestTuned *experiments.TunedParams `json:"best_tuned"`
	// Improvement is Default.Score / Best.Score (>= 1; 1 = the paper
	// defaults were not beaten).
	Improvement float64 `json:"improvement"`
}

// Encode serializes the result to canonical single-line JSON.
func (r *Result) Encode() ([]byte, error) {
	return json.Marshal(r)
}

// Run executes the tune loop: evaluate the paper-default anchor, then
// alternate Searcher.Propose / Observe rounds — each candidate expanded
// into its loads × seeds cell grid and executed through internal/harness
// (through the cache when Options.Store is set) — until the searcher
// converges or the budget is exhausted. Repeated vectors are memoized and
// never recomputed. The returned Result depends only on (spec, seed).
func Run(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	sp := spec.Space
	obj, err := ObjectiveByName(spec.Objective, spec.Sweep.RTTMinUS, spec.MixP99Weight, spec.MixAvgWeight)
	if err != nil {
		return nil, err
	}
	searcher, err := NewSearcher(spec.Searcher, spec.GridPoints, spec.Budget, spec.Restarts, spec.StepFrac, spec.MinStepFrac)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	res := &Result{SchemaVersion: ResultSchemaVersion, Spec: *spec}
	memo := make(map[string]int) // vector key -> Evals index
	t := &tuner{spec: spec, sp: sp, obj: obj, opts: opts, res: res, memo: memo}

	// Round 0: the anchor. Every run scores the hand-derived defaults, so
	// Best is never worse than the paper configuration.
	if _, err := t.scoreBatch(ctx, 0, [][]float64{sp.DefaultVector()}); err != nil {
		return nil, err
	}

	round := 1
	for t.fresh < spec.Budget && round <= maxRounds {
		batch := searcher.Propose(sp, rng)
		if len(batch) == 0 {
			break
		}
		for _, v := range batch {
			sp.Clamp(v)
		}
		scores, err := t.scoreBatch(ctx, round, batch)
		if err != nil {
			return nil, err
		}
		searcher.Observe(scores)
		round++
	}
	res.Rounds = round

	res.Default = res.Evals[0]
	best := 0
	for i := range res.Evals {
		if res.Evals[i].Score < res.Evals[best].Score {
			best = i
		}
	}
	res.Best = res.Evals[best]
	res.BestTuned = sp.ToTuned(res.Best.Vector)
	res.Improvement = 1
	if res.Best.Score > 0 {
		res.Improvement = res.Default.Score / res.Best.Score
	}
	t.progress(Progress{Type: "done", Round: round, Evals: len(res.Evals),
		Budget: spec.Budget, BestScore: res.Best.Score, BestIndex: res.Best.Index})
	return res, nil
}

// tuner carries Run's loop state through scoreBatch.
type tuner struct {
	spec  *Spec
	sp    *Space
	obj   Objective
	opts  Options
	res   *Result
	memo  map[string]int
	fresh int // fresh (non-memoized) candidate evaluations so far

	bestScore float64
	bestIndex int
}

func (t *tuner) progress(p Progress) {
	if t.opts.OnProgress != nil {
		t.opts.OnProgress(p)
	}
}

// vecKey canonicalizes a vector for memoization.
func vecKey(v []float64) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Vectors are clamped into finite boxes before scoring.
		panic(fmt.Sprintf("tune: canonicalizing vector: %v", err))
	}
	return string(b)
}

// scoreBatch evaluates one proposed batch: the fresh vectors' cell grids go
// through experiments.RunCells as one submission (candidate-major), scores
// memoize, and every evaluation appends to the Result history in batch
// order. The returned scores align with the batch.
func (t *tuner) scoreBatch(ctx context.Context, round int, batch [][]float64) ([]float64, error) {
	type pending struct {
		vec []float64
		key string
	}
	var fresh []pending
	var cells []experiments.Cell
	seen := make(map[string]bool, len(batch))
	baseCells := t.spec.Sweep.Cells()
	for _, v := range batch {
		key := vecKey(v)
		if _, ok := t.memo[key]; ok || seen[key] {
			continue
		}
		seen[key] = true
		fresh = append(fresh, pending{vec: v, key: key})
		cells = append(cells, withTuned(baseCells, t.sp.ToTuned(v))...)
	}

	outcomes, err := experiments.RunCells(ctx, cells, nil, t.opts.Store, nil,
		harness.Options{Parallel: t.opts.Parallel, Timeout: t.opts.Timeout})
	if err != nil {
		return nil, err
	}

	perCand := len(baseCells)
	for ci, p := range fresh {
		results := make([]experiments.CellResult, perCand)
		cached := 0
		for k, out := range outcomes[ci*perCand : (ci+1)*perCand] {
			if out.Err != nil {
				return nil, fmt.Errorf("tune: evaluating candidate %v: %w", p.vec, out.Err)
			}
			if out.Cached {
				cached++
			}
			results[k] = out.Result
		}
		score := t.obj.Score(t.spec.Sweep.Pool(results))
		ev := Eval{Index: len(t.res.Evals), Vector: p.vec, Score: score}
		t.res.Evals = append(t.res.Evals, ev)
		t.memo[p.key] = ev.Index
		t.fresh++
		if len(t.res.Evals) == 1 || score < t.bestScore {
			t.bestScore, t.bestIndex = score, ev.Index
		}
		t.progress(Progress{Type: "eval", Round: round, Index: ev.Index, Vector: ev.Vector,
			Score: score, Cells: perCand, CachedCells: cached,
			Evals: len(t.res.Evals), Budget: t.spec.Budget,
			BestScore: t.bestScore, BestIndex: t.bestIndex})
	}

	scores := make([]float64, len(batch))
	for i, v := range batch {
		scores[i] = t.res.Evals[t.memo[vecKey(v)]].Score
	}
	return scores, nil
}

// withTuned returns a copy of the sweep's cells carrying one candidate's
// parameter assignment.
func withTuned(base []experiments.Cell, tuned *experiments.TunedParams) []experiments.Cell {
	cells := make([]experiments.Cell, len(base))
	for i, c := range base {
		c.Tuned = tuned
		cells[i] = c
	}
	return cells
}
