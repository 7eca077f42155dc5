package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// pureJobs returns jobs whose value is a pure function of their index.
func pureJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Label: fmt.Sprintf("job%d", i),
			Run: func(context.Context) (any, error) {
				// Vary the runtime so completion order differs from
				// submission order under parallelism.
				time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestExecuteOrderedResults(t *testing.T) {
	jobs := pureJobs(20)
	res, err := Execute(context.Background(), jobs, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value.(int) != i*i {
			t.Errorf("result %d = %v, want %d (order not preserved)", i, r.Value, i*i)
		}
		if r.Label != fmt.Sprintf("job%d", i) {
			t.Errorf("result %d label = %q", i, r.Label)
		}
	}
}

func TestExecuteSerialMatchesParallel(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		res, err := Execute(context.Background(), pureJobs(12), Options{Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Value.(int) != i*i {
				t.Errorf("parallel=%d: result %d = %v", workers, i, r.Value)
			}
		}
	}
}

func TestExecuteEmpty(t *testing.T) {
	res, err := Execute(context.Background(), nil, Options{})
	if err != nil || len(res) != 0 {
		t.Errorf("Execute(nil) = %v, %v", res, err)
	}
}

func TestExecuteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{
			Label: fmt.Sprintf("slow%d", i),
			Run: func(jctx context.Context) (any, error) {
				if started.Add(1) == 1 {
					cancel() // first job shuts the batch down
				}
				<-jctx.Done()
				return nil, jctx.Err()
			},
		}
	}
	res, err := Execute(ctx, jobs, Options{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Execute error = %v, want canceled", err)
	}
	canceled := 0
	for _, r := range res {
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled != len(jobs) {
		t.Errorf("%d/%d jobs observed cancellation", canceled, len(jobs))
	}
	// Jobs never started must not have run at all.
	if n := started.Load(); n > 2 {
		t.Errorf("%d jobs started after cancel with 2 workers", n)
	}
}

func TestExecuteTimeout(t *testing.T) {
	jobs := []Job{
		{Label: "fast", Run: func(context.Context) (any, error) { return "ok", nil }},
		{Label: "stuck", Run: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}},
	}
	res, err := Execute(context.Background(), jobs, Options{Parallel: 2, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Value != "ok" {
		t.Errorf("fast job: %+v", res[0])
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Errorf("stuck job error = %v, want deadline exceeded", res[1].Err)
	}
}

func TestExecutePanicIsolated(t *testing.T) {
	jobs := []Job{
		{Label: "boom", Run: func(context.Context) (any, error) { panic("kaput") }},
		{Label: "fine", Run: func(context.Context) (any, error) { return 42, nil }},
	}
	res, err := Execute(context.Background(), jobs, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "kaput") {
		t.Errorf("panic not captured: %v", res[0].Err)
	}
	if res[1].Err != nil || res[1].Value.(int) != 42 {
		t.Errorf("sibling job poisoned: %+v", res[1])
	}
}

func TestExecuteProgress(t *testing.T) {
	var events []Progress
	_, err := Execute(context.Background(), pureJobs(10), Options{
		Parallel: 4,
		OnDone:   func(p Progress) { events = append(events, p) }, // serialized by the pool
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("%d progress events", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 10 {
			t.Errorf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
	}
}

func TestExecuteProgressCarriesValue(t *testing.T) {
	// Streaming consumers read each job's return value off its progress
	// event; Index identifies the job independent of completion order.
	jobs := make([]Job, 6)
	for i := range jobs {
		i := i
		jobs[i] = Job{Label: fmt.Sprintf("job%d", i),
			Run: func(context.Context) (any, error) { return i * 10, nil }}
	}
	seen := make([]any, len(jobs))
	res, err := Execute(context.Background(), jobs, Options{
		Parallel: 3,
		OnDone:   func(p Progress) { seen[p.Index] = p.Value }, // serialized by the pool
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if seen[i] != i*10 {
			t.Errorf("job %d: progress value %v, want %d", i, seen[i], i*10)
		}
		if res[i].Value != seen[i] {
			t.Errorf("job %d: progress value %v != result value %v", i, seen[i], res[i].Value)
		}
	}
}

func TestExecuteDefaultParallelism(t *testing.T) {
	// Parallel 0 must still run every job exactly once.
	var ran atomic.Int32
	jobs := make([]Job, 30)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			ran.Add(1)
			return nil, nil
		}}
	}
	if _, err := Execute(context.Background(), jobs, Options{}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 30 {
		t.Errorf("ran %d/30 jobs", ran.Load())
	}
}
