package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecnsharp/internal/cache"
)

// newTestServer starts a daemon over a fresh cache directory and returns
// its base URL.
func newTestServer(t *testing.T, cfg Config) string {
	t.Helper()
	_, base := newTestDaemon(t, cfg)
	return base
}

// newTestDaemon is newTestServer that also returns the Server.
func newTestDaemon(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Store == nil {
		store, err := cache.Open(t.TempDir(), cache.Options{})
		if err != nil {
			t.Fatalf("open cache: %v", err)
		}
		cfg.Store = store
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts.URL
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

// getBody returns url's body, or nil on any error. It never stops the
// test, so other goroutines may call it.
func getBody(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return b
}

// submitJob posts a spec to a collection URL (…/v1/sweeps or …/v1/tune),
// requires the 202 and returns the decoded body.
func submitJob(t *testing.T, url, spec string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode submit response %s: %v", body, err)
	}
	return out
}

// followStream reads a job's NDJSON stream to completion and returns every
// event. The stream only terminates when the job does, so this doubles as
// the wait-for-done primitive.
func followStream(t *testing.T, url string) []map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q, want application/x-ndjson", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 || events[len(events)-1]["type"] != "done" {
		t.Fatalf("stream did not end with a done event: %v", events)
	}
	return events
}

// submit posts a sweep spec and returns the sweep id.
func submit(t *testing.T, base, spec string) string {
	t.Helper()
	return submitJob(t, base+"/v1/sweeps", spec)["id"].(string)
}

// streamEvents follows a sweep's stream to its done event.
func streamEvents(t *testing.T, base, id string) []map[string]any {
	t.Helper()
	return followStream(t, base+"/v1/sweeps/"+id+"/stream")
}

const quickSpec = `{
  "topo": "star", "scheme": "ecnsharp", "workload": "websearch",
  "loads": [0.5], "flows": 40, "seeds": [1, 2],
  "trace": {"events": "mark,drop,flow_finish"}
}`

func TestHealthzAndRoutes(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2})
	var health map[string]string
	if resp := getJSON(t, base+"/healthz", &health); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" || health["schema_version"] == "" {
		t.Fatalf("healthz = %v", health)
	}
	var routes struct {
		Routes []Route `json:"routes"`
	}
	getJSON(t, base+"/v1/routes", &routes)
	if len(routes.Routes) != len(Routes()) {
		t.Fatalf("served %d routes, table has %d", len(routes.Routes), len(Routes()))
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2})
	for name, body := range map[string]string{
		"not json":       "{",
		"unknown field":  `{"topoo": "star"}`,
		"bad scheme":     `{"scheme": "wondernet"}`,
		"bad load":       `{"loads": [1.5]}`,
		"flows over cap": `{"flows": 2000000000}`,
		"cells over cap": `{"loads": [0.2, 0.4, 0.6, 0.8], "seeds": [` + strings.Repeat("1,", 256) + `1]}`,
		"huge variation": `{"rtt_variation": 1e300}`,
		"huge rtt min":   `{"rtt_min_us": 1e300}`,
		"tiny load":      `{"loads": [1e-300]}`,
	} {
		resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode error envelope: %v", name, err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != errSpecInvalid {
			t.Errorf("%s: status %d code %q, want 422 %q", name, resp.StatusCode, env.Error.Code, errSpecInvalid)
		}
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2, MaxSpecBytes: 64})
	big := `{"loads": [` + strings.Repeat("0.5,", 100) + `0.5]}`
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != errBodyTooLarge {
		t.Fatalf("status %d code %q, want 413 %q", resp.StatusCode, env.Error.Code, errBodyTooLarge)
	}
}

// resultsView is the results payload with the sweep-identity fields
// stripped, leaving exactly the experiment output: pooled statistics and
// per-cell stats/counters. Raw JSON is retained so byte comparison is
// exact, not float-tolerant.
type resultsView struct {
	Pooled json.RawMessage `json:"pooled"`
	Cells  []struct {
		Index    int             `json:"index"`
		Key      string          `json:"key"`
		Cached   bool            `json:"cached"`
		Stats    json.RawMessage `json:"stats"`
		Counters json.RawMessage `json:"counters"`
	} `json:"cells"`
	CacheHits int    `json:"cache_hits"`
	State     string `json:"state"`
}

// TestRepeatSubmissionServedFromCache is the end-to-end acceptance test:
// the same sweep submitted twice produces byte-identical FCT statistics,
// counters, and JSONL traces, with every second-run cell served from the
// cache rather than recomputed.
func TestRepeatSubmissionServedFromCache(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2, Timeout: 2 * time.Minute})

	run := func() (resultsView, [][]byte) {
		id := submit(t, base, quickSpec)
		events := streamEvents(t, base, id)
		done := events[len(events)-1]
		if done["state"] != "done" {
			t.Fatalf("sweep %s finished in state %v (%v)", id, done["state"], done["error"])
		}
		var rv resultsView
		if resp := getJSON(t, base+"/v1/sweeps/"+id+"/results", &rv); resp.StatusCode != 200 {
			t.Fatalf("results status %d", resp.StatusCode)
		}
		var traces [][]byte
		for i := range rv.Cells {
			resp, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/cells/%d/trace", base, id, i))
			if err != nil {
				t.Fatalf("GET trace: %v", err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("trace %d: status %d err %v", i, resp.StatusCode, err)
			}
			if len(b) == 0 {
				t.Fatalf("trace %d is empty despite trace being enabled", i)
			}
			traces = append(traces, b)
		}
		return rv, traces
	}

	first, firstTraces := run()
	if first.CacheHits != 0 {
		t.Fatalf("first run reported %d cache hits, want 0", first.CacheHits)
	}
	second, secondTraces := run()

	if second.CacheHits != len(second.Cells) {
		t.Errorf("second run: %d/%d cells cached, want all", second.CacheHits, len(second.Cells))
	}
	for _, c := range second.Cells {
		if !c.Cached {
			t.Errorf("second run: cell %d not served from cache", c.Index)
		}
	}
	if !bytes.Equal(first.Pooled, second.Pooled) {
		t.Errorf("pooled statistics differ between runs:\n%s\n%s", first.Pooled, second.Pooled)
	}
	for i := range first.Cells {
		if first.Cells[i].Key != second.Cells[i].Key {
			t.Errorf("cell %d cache key differs", i)
		}
		if !bytes.Equal(first.Cells[i].Stats, second.Cells[i].Stats) {
			t.Errorf("cell %d stats differ", i)
		}
		if !bytes.Equal(first.Cells[i].Counters, second.Cells[i].Counters) {
			t.Errorf("cell %d counters differ", i)
		}
		if !bytes.Equal(firstTraces[i], secondTraces[i]) {
			t.Errorf("cell %d trace bytes differ (%d vs %d bytes)", i, len(firstTraces[i]), len(secondTraces[i]))
		}
	}

	// A finished sweep keeps its pooled answer: the results are the same
	// bytes on every fetch.
	if r1, r2 := getBody(base+"/v1/sweeps/sw-2/results"), getBody(base+"/v1/sweeps/sw-2/results"); len(r1) == 0 || !bytes.Equal(r1, r2) {
		t.Errorf("two fetches of one finished sweep's results differ:\n%s\n%s", r1, r2)
	}

	// The daemon's cache counters must agree: 2 misses (first run's two
	// seeds computed), then 2 hits.
	var stats struct {
		Hits, Misses, Entries int64
	}
	getJSON(t, base+"/v1/cache/stats", &stats)
	if stats.Misses != int64(len(first.Cells)) || stats.Hits < int64(len(first.Cells)) {
		t.Errorf("cache stats hits=%d misses=%d, want misses=%d hits>=%d",
			stats.Hits, stats.Misses, len(first.Cells), len(first.Cells))
	}

	// Sweep listing shows both runs finished.
	var list struct {
		Sweeps []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"sweeps"`
	}
	getJSON(t, base+"/v1/sweeps", &list)
	if len(list.Sweeps) != 2 {
		t.Fatalf("listed %d sweeps, want 2", len(list.Sweeps))
	}
	for _, sw := range list.Sweeps {
		if sw.State != "done" {
			t.Errorf("sweep %s state %q, want done", sw.ID, sw.State)
		}
	}
}

// TestUntracedCellHasNoTrace pins the trace endpoint's behavior for
// sweeps submitted without a trace block.
func TestUntracedCellHasNoTrace(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2})
	id := submit(t, base, `{"loads": [0.5], "flows": 20, "seeds": [7]}`)
	streamEvents(t, base, id)
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/cells/0/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != errNotFound {
		t.Fatalf("status %d code %q, want 404 %q", resp.StatusCode, env.Error.Code, errNotFound)
	}
}

// TestStatusReportsPerCellCacheState checks the status endpoint after a
// cached re-run: every cell done, cached flags set, spec echoed.
func TestStatusReportsPerCellCacheState(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2})
	spec := `{"loads": [0.5], "flows": 20, "seeds": [3]}`
	id1 := submit(t, base, spec)
	streamEvents(t, base, id1)
	id2 := submit(t, base, spec)
	streamEvents(t, base, id2)

	var status struct {
		State     string `json:"state"`
		Total     int    `json:"total"`
		Done      int    `json:"done"`
		CacheHits int    `json:"cache_hits"`
		Cells     []struct {
			State  string `json:"state"`
			Cached *bool  `json:"cached"`
		} `json:"cells"`
	}
	getJSON(t, base+"/v1/sweeps/"+id2, &status)
	if status.State != "done" || status.Done != status.Total || status.CacheHits != status.Total {
		t.Fatalf("status = %+v, want fully cached done sweep", status)
	}
	for i, c := range status.Cells {
		if c.State != "done" || c.Cached == nil || !*c.Cached {
			t.Errorf("cell %d: state %q cached %v, want done/true", i, c.State, c.Cached)
		}
	}
}
