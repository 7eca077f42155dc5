// Package harness executes independent simulation jobs on a bounded
// worker pool.
//
// The simulation engine is single-threaded by design (see sim.Engine):
// parallelism comes from running independent simulations on independent
// engines. The harness models one such run as a Job, fans jobs out over
// GOMAXPROCS-sized worker pools, and returns results in submission order
// regardless of completion order — so callers that merge results get
// byte-identical output whether the pool has 1 worker or 64, as long as
// each job is a pure function of its inputs.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Job is one independent unit of work, typically a single (config, seed)
// simulation run on its own engine.
type Job struct {
	// Label identifies the job in progress reports and error messages.
	Label string
	// Run executes the job. The context is canceled when the pool is shut
	// down or the job's per-job deadline (Options.Timeout) expires;
	// long-running jobs should poll it and return ctx.Err().
	Run func(ctx context.Context) (any, error)
}

// Result is the outcome of one job. Results are indexed like the job slice
// passed to Execute, independent of completion order.
type Result struct {
	Label   string
	Value   any
	Err     error
	Elapsed time.Duration
}

// Progress is one completion event delivered to Options.OnDone.
type Progress struct {
	// Done is the number of jobs finished so far, including this one;
	// Total is the size of the batch.
	Done, Total int
	// Index is the job's submission-order position in the batch — stable
	// across parallelism levels, unlike the Done sequence.
	Index   int
	Label   string
	Elapsed time.Duration
	Err     error
	// Value is the completed job's return value (nil when Err is
	// non-nil). Streaming consumers — e.g. a server forwarding per-job
	// results over a chunked response — read it here instead of waiting
	// for the whole batch; Execute still returns the same value in the
	// job's Result.
	Value any
}

// Options configure one Execute call.
type Options struct {
	// Parallel is the worker count: 0 means one worker per CPU
	// (GOMAXPROCS), 1 runs the jobs serially on the calling goroutine.
	Parallel int
	// Timeout, when positive, bounds each job's wall-clock run time via
	// its context deadline.
	Timeout time.Duration
	// OnDone, when non-nil, receives one event per completed job. Calls
	// are serialized, but under parallelism the completion order (and
	// hence the Label sequence) is nondeterministic.
	OnDone func(Progress)
}

// Execute runs every job and returns their results in job order. It blocks
// until all jobs have finished. Per-job failures (including an expired
// Timeout) are reported in the corresponding Result.Err, not returned;
// Execute's own error is non-nil only when ctx was canceled, in which case
// jobs not yet started carry ctx's error and were never run.
//
// A panicking job is captured as its Result.Err so one bad run cannot take
// down a whole batch running on worker goroutines.
func Execute(ctx context.Context, jobs []Job, opts Options) ([]Result, error) {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}

	var mu sync.Mutex
	done := 0
	finish := func(i int, r Result) {
		results[i] = r
		if opts.OnDone == nil {
			return
		}
		mu.Lock()
		done++
		ev := Progress{Done: done, Total: len(jobs), Index: i,
			Label: r.Label, Elapsed: r.Elapsed, Err: r.Err, Value: r.Value}
		opts.OnDone(ev)
		mu.Unlock()
	}

	runOne := func(i int) {
		job := jobs[i]
		if err := ctx.Err(); err != nil {
			finish(i, Result{Label: job.Label, Err: err})
			return
		}
		jctx, cancel := ctx, context.CancelFunc(func() {})
		if opts.Timeout > 0 {
			jctx, cancel = context.WithTimeout(jctx, opts.Timeout)
		}
		// The harness measures real job latency for progress reporting and
		// timeout attribution; host time never reaches simulation state.
		start := time.Now() //lint:allow wallclock -- measures host-side job latency, not sim time
		v, err := runJob(jctx, job)
		cancel()
		finish(i, Result{Label: job.Label, Value: v, Err: err, Elapsed: time.Since(start)}) //lint:allow wallclock -- measures host-side job latency, not sim time
	}

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			runOne(i)
		}
		return results, ctx.Err()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, ctx.Err()
}

// runJob invokes job.Run, converting a panic into an error.
func runJob(ctx context.Context, job Job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: job %q panicked: %v", job.Label, r)
		}
	}()
	return job.Run(ctx)
}
