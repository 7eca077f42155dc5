package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/tune"
)

// slowSweep is one cell that simulates for tens of seconds: a job that is
// certainly still running when the next request arrives. Closing the
// server cancels it.
const slowSweep = `{"loads": [0.9], "flows": 20000, "seeds": [1]}`

// lifecycleCase is one job kind as the lifecycle test sees it: where its
// routes live, what its texts say, and the checks only that kind has.
type lifecycleCase struct {
	kind     string   // subtest name
	base     string   // collection route
	prefix   string   // of the ids
	noun     string   // in 404 and 409 messages
	listKey  string   // of the list response
	result   string   // result route, under {id}
	idRoutes []string // every other route under {id}

	spec, slowSpec string
	// running is the 409 progress text of slowSpec right after submission.
	running string
	// accepted checks the 202 body beyond the id.
	accepted func(t *testing.T, body map[string]any)
	// finished checks the events, result body and list item of a done job.
	finished func(t *testing.T, events []map[string]any, result []byte, item map[string]any)
	// failed checks the terminal error message and status body of a job
	// whose every cell timed out.
	failed func(t *testing.T, msg string, status map[string]any)
}

var lifecycleCases = []lifecycleCase{
	{
		kind: "sweep", base: "/v1/sweeps", prefix: "sw-", noun: "sweep", listKey: "sweeps",
		result: "/results", idRoutes: []string{"", "/stream", "/cells/0/trace"},
		spec: quickSpec, slowSpec: slowSweep, running: "0/1 cells",
		accepted: func(t *testing.T, body map[string]any) {
			cells, _ := body["cells"].(float64)
			keys, _ := body["keys"].([]any)
			if cells == 0 || len(keys) != int(cells) {
				t.Errorf("bad submit response: %v", body)
			}
		},
		finished: func(t *testing.T, events []map[string]any, result []byte, item map[string]any) {
			if len(events) != 3 || events[0]["type"] != "cell" {
				t.Errorf("stream = %v, want two cell events and done", events)
			}
			var rv resultsView
			if err := json.Unmarshal(result, &rv); err != nil || rv.State != stateDone || len(rv.Cells) != 2 {
				t.Errorf("results = %+v (err %v), want a done sweep of 2 cells", rv, err)
			}
			if item["cells"] != 2.0 || item["done"] != 2.0 {
				t.Errorf("list item = %v, want 2 of 2 cells done", item)
			}
		},
		failed: func(t *testing.T, msg string, status map[string]any) {
			if msg != "2 of 2 cells failed" {
				t.Errorf("failure message = %q, want %q", msg, "2 of 2 cells failed")
			}
			cells, _ := status["cells"].([]any)
			if len(cells) != 2 {
				t.Fatalf("status cells = %v, want 2", status["cells"])
			}
			for i, c := range cells {
				cell := c.(map[string]any)
				if cell["state"] != "error" || cell["error"] == "" || cell["cached"] != nil {
					t.Errorf("cell %d = %v, want state error with a message", i, cell)
				}
			}
		},
	},
	{
		kind: "tune", base: "/v1/tune", prefix: "tn-", noun: "tune run", listKey: "tunes",
		result: "/result", idRoutes: []string{"", "/stream"},
		spec: quickTuneSpec, slowSpec: `{"sweep": ` + slowSweep + `, "budget": 1}`,
		running: "0 evaluations so far",
		accepted: func(t *testing.T, body map[string]any) {
			if budget, _ := body["budget"].(float64); budget < 1 {
				t.Errorf("bad tune submit response: %v", body)
			}
		},
		finished: func(t *testing.T, events []map[string]any, result []byte, item map[string]any) {
			if len(events) < 2 || events[0]["type"] != "eval" {
				t.Errorf("stream = %v, want eval events plus done", events)
			}
			// The result decodes as a tune.Result with the anchor first and
			// the best no worse than the default.
			var res tune.Result
			if err := json.Unmarshal(result, &res); err != nil {
				t.Fatalf("decode tune result: %v", err)
			}
			if res.SchemaVersion != tune.ResultSchemaVersion {
				t.Errorf("result schema version %q", res.SchemaVersion)
			}
			if len(res.Evals) == 0 || res.Evals[0].Index != 0 {
				t.Errorf("result is missing the anchor evaluation: %+v", res.Evals)
			}
			if res.Best.Score > res.Default.Score {
				t.Errorf("best %v is worse than the default %v", res.Best.Score, res.Default.Score)
			}
			if res.BestTuned == nil {
				t.Error("result has no BestTuned assignment")
			}
			if item["evals"] != float64(len(res.Evals)) {
				t.Errorf("list evals %v != result evals %d", item["evals"], len(res.Evals))
			}
		},
		failed: func(t *testing.T, msg string, _ map[string]any) {
			if !strings.HasPrefix(msg, "tune: evaluating candidate") {
				t.Errorf("failure message = %q, want the candidate error", msg)
			}
		},
	},
}

// getErr fetches url and decodes the error envelope.
func getErr(t *testing.T, url string) (status int, code, msg string) {
	t.Helper()
	var env struct {
		Error struct{ Code, Message string } `json:"error"`
	}
	resp := getJSON(t, url, &env)
	return resp.StatusCode, env.Error.Code, env.Error.Message
}

// TestJobLifecycle drives the one job lifecycle through both kinds: submit,
// status, stream to the terminal event, result and list for a job that
// finishes; the 404 on every {id} route; the 409 while running and an
// abandoned stream; and the failed state end to end.
func TestJobLifecycle(t *testing.T) {
	for _, tc := range lifecycleCases {
		t.Run(tc.kind, func(t *testing.T) {
			t.Run("done", tc.done)
			t.Run("not_found", tc.notFound)
			t.Run("running", tc.stillRunning)
			t.Run("failed", tc.allCellsFail)
		})
	}
}

func (tc lifecycleCase) done(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2, Timeout: 2 * time.Minute})
	body := submitJob(t, base+tc.base, tc.spec)
	id, _ := body["id"].(string)
	if id != tc.prefix+"1" {
		t.Fatalf("first id = %q, want %s1", id, tc.prefix)
	}
	tc.accepted(t, body)
	job := base + tc.base + "/" + id

	// The stream below is the wait primitive, so poke the status endpoint
	// first: the job is either running or already done, never a 404/500.
	var status map[string]any
	if resp := getJSON(t, job, &status); resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint: %d", resp.StatusCode)
	}
	if status["id"] != id || (status["state"] != stateRunning && status["state"] != stateDone) || status["spec"] == nil {
		t.Errorf("status = %v", status)
	}

	// Eight more followers attach while the job runs and read its buffered
	// events concurrently with the one below: each gets the whole stream.
	const followers = 8
	streams := make(chan []byte, followers)
	for range followers {
		go func() { streams <- getBody(job + "/stream") }()
	}
	events := followStream(t, job+"/stream")
	if last := events[len(events)-1]; last["state"] != stateDone {
		t.Fatalf("stream terminal event = %v", last)
	}
	want := <-streams
	for range followers - 1 {
		if got := <-streams; len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("concurrent followers read different streams:\n%s\n%s", got, want)
		}
	}

	resp, err := http.Get(job + tc.result)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	result, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("result: status %d, content-type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), result)
	}

	// The job shows up in its kind's list with a done state.
	var list map[string][]map[string]any
	getJSON(t, base+tc.base, &list)
	items := list[tc.listKey]
	if len(items) != 1 || items[0]["id"] != id || items[0]["state"] != stateDone {
		t.Fatalf("list = %v", list)
	}
	tc.finished(t, events, result, items[0])
}

func (tc lifecycleCase) notFound(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2})
	for _, route := range append(tc.idRoutes, tc.result) {
		path := tc.base + "/" + tc.prefix + "99" + route
		status, code, msg := getErr(t, base+path)
		if status != http.StatusNotFound || code != errNotFound || msg != "no such "+tc.noun {
			t.Errorf("GET %s: %d %s %q, want 404 %s %q", path, status, code, msg, errNotFound, "no such "+tc.noun)
		}
	}
}

// stillRunning submits a job that cannot finish quickly. Its result route
// must answer 409 with the progress so far, and a client that abandons its
// stream must release the stream handler at once, not when the job ends: the
// handler's return is observed through a wrapper around the server's own.
func (tc lifecycleCase) stillRunning(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	srv, err := New(Config{Store: store, Parallel: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	entered, returned := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			close(entered)
			defer close(returned)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	// Stop the simulation before the listener: ts.Close waits for handlers.
	t.Cleanup(func() { srv.Close(); ts.Close() })

	id := submitJob(t, ts.URL+tc.base, tc.slowSpec)["id"].(string)
	job := ts.URL + tc.base + "/" + id
	want := tc.noun + " is still running (" + tc.running + ")"
	if status, code, msg := getErr(t, job+tc.result); status != http.StatusConflict || code != errNotFinished || msg != want {
		t.Errorf("result while running: %d %s %q, want 409 %s %q", status, code, msg, errNotFinished, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", job+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream handler is still parked 10 s after its client went away")
	}
	var status map[string]any
	getJSON(t, job, &status)
	if status["state"] != stateRunning {
		t.Errorf("job state after the client left = %v, want %s", status["state"], stateRunning)
	}
}

// allCellsFail runs the quick spec under a timeout no computation can meet.
func (tc lifecycleCase) allCellsFail(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2, Timeout: time.Nanosecond})
	id := submitJob(t, base+tc.base, tc.spec)["id"].(string)
	job := base + tc.base + "/" + id

	events := followStream(t, job+"/stream")
	last := events[len(events)-1]
	msg, _ := last["error"].(string)
	if last["state"] != stateFailed || msg == "" {
		t.Fatalf("stream terminal event = %v, want a failed state with an error", last)
	}
	var status map[string]any
	getJSON(t, job, &status)
	if status["state"] != stateFailed || status["error"] != msg {
		t.Errorf("status = %v, want failed with %q", status, msg)
	}
	tc.failed(t, msg, status)
	if status, code, got := getErr(t, job+tc.result); status != http.StatusConflict || code != errNotFinished || got != msg {
		t.Errorf("result of a failed job: %d %s %q, want 409 %s %q", status, code, got, errNotFinished, msg)
	}
}

// TestFinishedJobsExpire drives the registry's retention bound through both
// kinds: see evicted.
func TestFinishedJobsExpire(t *testing.T) {
	for _, tc := range lifecycleCases {
		t.Run(tc.kind, tc.evicted)
	}
}

// evicted submits a slow job and then finishedJobs+1 quick ones, each
// followed to its end. The first quick job has then been dropped: its id
// answers 410 on every {id} route, while ids never issued stay 404. The
// list holds the slow job, still running, and the newest finishedJobs
// quick ones, in submission order; the next submission takes a new id.
// Closing the server ends the slow job.
func (tc lifecycleCase) evicted(t *testing.T) {
	srv, base := newTestDaemon(t, Config{Parallel: 1})
	coll := base + tc.base
	slow := submitJob(t, coll, tc.slowSpec)["id"].(string)
	if slow != tc.prefix+"1" {
		t.Fatalf("first id = %q, want %s1", slow, tc.prefix)
	}
	var quick []string
	for i := range finishedJobs + 1 {
		id := submitJob(t, coll, tc.spec)["id"].(string)
		if want := fmt.Sprintf("%s%d", tc.prefix, i+2); id != want {
			t.Fatalf("submission %d got id %q, want %q", i+2, id, want)
		}
		followStream(t, coll+"/"+id+"/stream")
		quick = append(quick, id)
	}

	routes := append(tc.idRoutes, tc.result)
	for _, route := range routes {
		path := tc.base + "/" + quick[0] + route
		status, code, msg := getErr(t, base+path)
		if status != http.StatusGone || code != errExpired || !strings.Contains(msg, "resubmit the spec") {
			t.Errorf("GET %s: %d %s %q, want 410 %s asking for a resubmit", path, status, code, msg, errExpired)
		}
	}
	next := fmt.Sprintf("%s%d", tc.prefix, finishedJobs+3)
	for _, id := range []string{tc.prefix + "0", tc.prefix + "x", tc.prefix + "02", next} {
		for _, route := range routes {
			path := tc.base + "/" + id + route
			if status, code, _ := getErr(t, base+path); status != http.StatusNotFound || code != errNotFound {
				t.Errorf("GET %s: %d %s, want 404 %s", path, status, code, errNotFound)
			}
		}
	}

	var list map[string][]map[string]any
	getJSON(t, coll, &list)
	items := list[tc.listKey]
	want := append([]string{slow}, quick[1:]...)
	if len(items) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(items), len(want))
	}
	for i, item := range items {
		if item["id"] != want[i] {
			t.Fatalf("list entry %d is %v, want %s", i, item["id"], want[i])
		}
	}
	if items[0]["state"] != stateRunning {
		t.Errorf("slow job %s is %v, want %s", slow, items[0]["state"], stateRunning)
	}

	if id := submitJob(t, coll, tc.spec)["id"].(string); id != next {
		t.Errorf("next submission got id %q, want %q", id, next)
	}
	followStream(t, coll+"/"+next+"/stream")
	if status, code, _ := getErr(t, coll+"/"+quick[1]); status != http.StatusGone || code != errExpired {
		t.Errorf("%s after one more job finished: %d %s, want 410 %s", quick[1], status, code, errExpired)
	}

	srv.Close()
	events := followStream(t, coll+"/"+slow+"/stream")
	if last := events[len(events)-1]; last["state"] != stateFailed {
		t.Errorf("slow job after Close ended with %v, want state %s", last, stateFailed)
	}
}

// TestRetentionSoak resubmits quickSpec 4 × finishedJobs times to one
// server, following each sweep to its end and reading its results, every
// cell a cache hit after the first sweep. The registry never holds more
// than finishedJobs finished jobs beside the running ones; a retained
// finished sweep costs at most retainedSweepBytes of heap, measured between
// the second sweep (the table filled) and the finishedJobs-th (none yet
// dropped); the heap after the last sweep is within soakHeapSlack of the
// heap halfway, when every later sweep only replaces a dropped one; and once
// the client's idle connections close, the goroutine count is back at its
// start.
func TestRetentionSoak(t *testing.T) {
	const soakHeapSlack = 128 << 10
	// A retained finished sweep of quickSpec's two cells measured 1 296 to
	// 1 463 B on amd64, with and without -race (914 to 1 033 B on 386); one
	// that kept its decoded results and copied each cell's stats into its
	// stream measured 2 366 to 2 438 B on amd64. The bound is the highest
	// reading plus about a quarter.
	const retainedSweepBytes = 1800
	srv, base := newTestDaemon(t, Config{Parallel: 2})
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	goroutines := runtime.NumGoroutine()

	bound := func(when string, i int) {
		t.Helper()
		srv.mu.Lock()
		jobs, running := len(srv.jobs), 0
		for _, j := range srv.jobs {
			j.mu.Lock()
			if j.state == stateRunning {
				running++
			}
			j.mu.Unlock()
		}
		srv.mu.Unlock()
		if jobs > finishedJobs+running {
			t.Fatalf("%s sweep %d: %d jobs retained, %d of them running; want at most %d finished",
				when, i, jobs, running, finishedJobs)
		}
	}
	var filled, full, half uint64
	for i := 1; i <= 4*finishedJobs; i++ {
		id := submit(t, base, quickSpec)
		bound("submitting", i)
		if done := streamEvents(t, base, id); done[len(done)-1]["state"] != stateDone {
			t.Fatalf("sweep %d ended with %v", i, done[len(done)-1])
		}
		bound("after", i)
		var rv resultsView
		if resp := getJSON(t, base+"/v1/sweeps/"+id+"/results", &rv); resp.StatusCode != http.StatusOK || (i > 1 && rv.CacheHits != len(rv.Cells)) {
			t.Fatalf("sweep %d results: status %d, %d of %d cells cached", i, resp.StatusCode, rv.CacheHits, len(rv.Cells))
		}
		switch i {
		case 2:
			filled = liveHeap()
		case finishedJobs:
			full = liveHeap()
		case 2 * finishedJobs:
			half = liveHeap()
		}
	}
	end := liveHeap()
	perSweep := (int64(full) - int64(filled)) / (finishedJobs - 2)
	t.Logf("heap %d B after 2 sweeps, %d B after %d: %d B per retained finished sweep", filled, full, finishedJobs, perSweep)
	if perSweep > retainedSweepBytes {
		t.Errorf("a retained finished sweep holds %d B of heap, more than %d B", perSweep, retainedSweepBytes)
	}
	t.Logf("heap %d B at %d sweeps, %d B at %d", half, 2*finishedJobs, end, 4*finishedJobs)
	if end > half+soakHeapSlack {
		t.Errorf("heap grew from %d B at %d sweeps to %d B at %d, more than %d B",
			half, 2*finishedJobs, end, 4*finishedJobs, soakHeapSlack)
	}
	srv.mu.Lock()
	retained := len(srv.jobs)
	srv.mu.Unlock()
	if retained != finishedJobs {
		t.Errorf("%d jobs retained after the soak, want %d", retained, finishedJobs)
	}

	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines once the streams closed, %d at the start", n, goroutines)
	}
}
