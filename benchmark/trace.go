package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share Op; Parent is the ID of the
// span that caused this one, or -1. A span's self time is its duration
// minus the part its children cover.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op_id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans and the counts taken at the same boundaries in memory
// until the run ends. A nil *tracer is tracing switched off: every method
// returns at once.
type tracer struct {
	workload string
	epoch    time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: now(), counts: make(map[string]float64)}
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	at := now().Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Workload: t.workload, Op: op, Parent: parent, StartNS: at})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := now().Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = at
	t.mu.Unlock()
}

// count adds v to a named count.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// seconds returns the duration of every span called name, in start order.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// selfSeconds is seconds with the time of each span's direct children taken
// out. It is only meaningful where the children run one after another
// inside their parent.
func (t *tracer) selfSeconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS-child[s.ID])/1e9)
		}
	}
	return out
}

// write stores the trace as JSON lines: one object per span, then one
// holding the counts.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]any{"workload": t.workload, "counts": t.counts}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
