package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/service"
)

// sweepWorkers is the daemon's Config.Parallel: one cell per CPU the
// benchmark allows itself.
const sweepWorkers = 2

// requestTimeout bounds every HTTP request; the longest one follows a cold
// sweep's stream to its end.
const requestTimeout = 150 * time.Second

// sweepSpec is the JSON document the workloads submit: the paper's
// websearch traffic on the 128-host leaf-spine under ECN#, on the serial
// engine, seeds S, S+1, ...
func (r *run) sweepSpec() ([]byte, int) {
	seeds := make([]int64, r.size.sweepSeeds)
	for i := range seeds {
		seeds[i] = r.opts.seed + int64(i)
	}
	spec, err := json.Marshal(map[string]any{
		"topo": "leafspine", "scheme": "ecnsharp", "workload": "websearch",
		"loads": r.size.sweepLoads, "flows": r.size.sweepFlows, "seeds": seeds,
	})
	if err != nil {
		panic(err) // numbers and strings
	}
	return spec, len(r.size.sweepLoads) * len(seeds)
}

// daemon is an in-process ecnsharpd: the service's handler over a cache
// directory, behind a loopback HTTP listener.
type daemon struct {
	store *cache.Store
	srv   *service.Server
	ts    *httptest.Server
}

func openDaemon(dir string) (*daemon, error) {
	store, err := cache.Open(dir, cache.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Store: store, Parallel: sweepWorkers})
	if err != nil {
		return nil, err
	}
	return &daemon{store: store, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// request performs one HTTP exchange and returns the body. Each response
// is one operation in the tally; anything but wantStatus fails it.
func (r *run) request(d *daemon, method, path string, body []byte, wantStatus int) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		r.tally.ops(1, 1, method+" "+path)
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != wantStatus {
		r.tally.ops(1, 1, method+" "+path)
		return nil, fmt.Errorf("%s %s: status %d, %v: %s", method, path, resp.StatusCode, err, data)
	}
	r.tally.ops(1, 0, "")
	return data, nil
}

// roundTrip is one sweep as a client sees it: submit the spec, follow the
// progress stream to its "done" event, fetch the results. The three phases
// are spans when tr is on.
func (r *run) roundTrip(d *daemon, spec []byte, tr *tracer, op int) ([]byte, error) {
	root := tr.start("service.roundtrip", op, -1)
	defer tr.end(root)

	s := tr.start("service.submit", op, root)
	accepted, err := r.request(d, "POST", "/v1/sweeps", spec, http.StatusAccepted)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(accepted, &sub); err != nil || sub.ID == "" {
		return nil, fmt.Errorf("submit response %q: %v", accepted, err)
	}

	s = tr.start("service.stream", op, root)
	stream, err := r.request(d, "GET", "/v1/sweeps/"+sub.ID+"/stream", nil, http.StatusOK)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var last struct {
		Type  string `json:"type"`
		State string `json:"state"`
	}
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, len(stream)+1)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return nil, fmt.Errorf("stream event %q: %w", sc.Bytes(), err)
		}
	}
	if last.Type != "done" || last.State != "done" {
		return nil, fmt.Errorf("sweep %s ended with event %+v", sub.ID, last)
	}

	s = tr.start("service.results", op, root)
	results, err := r.request(d, "GET", "/v1/sweeps/"+sub.ID+"/results", nil, http.StatusOK)
	tr.end(s)
	return results, err
}

// sweepResults is the part of a results document that is a function of the
// spec alone: everything but the sweep id and the per-cell cached flags.
type sweepResults struct {
	CacheHits int             `json:"cache_hits"`
	Pooled    json.RawMessage `json:"pooled"`
	Cells     []struct {
		Key      string           `json:"key"`
		Cell     json.RawMessage  `json:"cell"`
		Stats    json.RawMessage  `json:"stats"`
		Counters map[string]int64 `json:"counters"`
	} `json:"cells"`
}

// checkResults decodes a results document, counts its cells and their flows
// in the tally, and returns it with the digest of its simulated content.
func (r *run) checkResults(body []byte, cells int) (sweepResults, string, error) {
	var res sweepResults
	if err := json.Unmarshal(body, &res); err != nil {
		return res, "", fmt.Errorf("results document: %w", err)
	}
	r.tally.check(len(res.Cells) == cells, "results hold %d cells, want %d", len(res.Cells), cells)
	h := sha256.New()
	h.Write(res.Pooled)
	for _, c := range res.Cells {
		r.tally.ops(1, 0, "")
		injected, completed := int(c.Counters["injected"]), int(c.Counters["completed"])
		r.tally.ops(injected, injected-completed, fmt.Sprintf("flows of cell %.12s", c.Key))
		counters, err := json.Marshal(c.Counters)
		if err != nil {
			return res, "", err
		}
		for _, part := range [][]byte{[]byte(c.Key), c.Cell, c.Stats, counters} {
			h.Write(part)
			h.Write([]byte{'\n'})
		}
	}
	return res, hex.EncodeToString(h.Sum(nil)), nil
}

// coldResult is what one cold pass leaves behind.
type coldResult struct {
	body      []byte
	digest    string
	wall, cpu float64
}

// coldPass runs the spec once against a fresh cache directory and checks
// that nothing was served from cache. It leaves the directory populated and
// returns the daemon still open, for the caller to close.
func (r *run) coldPass(dir string, spec []byte, cells int, tr *tracer) (*daemon, coldResult, error) {
	d, err := openDaemon(dir)
	if err != nil {
		return nil, coldResult{}, err
	}
	var c coldResult
	sw := startWatch()
	c.body, err = r.roundTrip(d, spec, tr, 0)
	c.wall, c.cpu = sw.stop()
	if err != nil {
		d.close()
		return nil, coldResult{}, err
	}
	res, digest, err := r.checkResults(c.body, cells)
	if err != nil {
		d.close()
		return nil, coldResult{}, err
	}
	c.digest = digest
	st := d.store.Stats()
	r.tally.check(res.CacheHits == 0 && st.Hits == 0 && st.Misses == int64(cells) && st.Puts == int64(cells),
		"cold sweep: %d cells reported cached; store hits/misses/puts %d/%d/%d, want 0/%d/%d",
		res.CacheHits, st.Hits, st.Misses, st.Puts, cells, cells)
	return d, c, nil
}

// runSweepCold times one sweep, submit to result bytes, over an empty cache.
func (r *run) runSweepCold() error {
	spec, cells := r.sweepSpec()

	// Set-up is opening a cache directory and starting the daemon on it,
	// repeated on fresh directories and reported as the median.
	m := r.beginSetup()
	opens := make([]float64, r.size.setupReps)
	for i := range opens {
		dir, err := r.scratch(fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		var d *daemon
		opens[i] = wallOf(func() { d, err = openDaemon(dir) })
		if err != nil {
			return err
		}
		d.close()
	}
	m.setupS = median(opens)

	dir, err := r.scratch("cold")
	if err != nil {
		return err
	}
	live0 := liveHeapBytes()
	r.beginTimed(&m)
	d, cold, err := r.coldPass(dir, spec, cells, nil)
	if err != nil {
		return err
	}
	m.timed.add(cold.wall, cold.cpu)
	m.timed.probed(r.probe())
	r.digest = cold.digest
	m.work = float64(cells)
	m.live = liveHeapBytes()
	d.close()
	if err := r.reportEndToEnd(m); err != nil {
		return err
	}
	if !r.opts.trace {
		return nil
	}
	r.layer["service.results_bytes"] = float64(len(cold.body))
	r.layer["service.roundtrip_p99_ms"] = cold.wall * 1e3
	r.layer["service.retained_mb_per_sweep"] = (float64(m.live) - float64(live0)) / 1e6
	return r.traceSweepCold(spec, cells, cold.digest, m)
}

// runSweepWarm fills a cache directory with a cold pass, restarts the
// daemon on it, and then times the same spec resubmitted warmIters times,
// every cell a cache hit.
func (r *run) runSweepWarm() error {
	spec, cells := r.sweepSpec()
	dir, err := r.scratch("warm")
	if err != nil {
		return err
	}

	m := r.beginSetup()
	var coldDigest string
	var d *daemon
	var openS float64
	m.setupS = wallOf(func() {
		var cold coldResult
		if d, cold, err = r.coldPass(dir, spec, cells, nil); err != nil {
			return
		}
		d.close()
		coldDigest = cold.digest
		openS = wallOf(func() { d, err = openDaemon(dir) })
	})
	if err != nil {
		return err
	}
	want := coldDigest
	if r.opts.corruptReference {
		want = flipByte(want)
	}

	live0 := liveHeapBytes()
	iters := r.size.warmIters
	r.beginTimed(&m)
	bodyLen, err := r.warmLoop(d, spec, cells, want, nil, &m.timed)
	if err != nil {
		return err
	}

	r.digest = coldDigest
	m.work = float64(iters)
	m.live = liveHeapBytes()
	d.close()
	d = nil // the daemon keeps every sweep it ran; let the traced pass start without them
	if err := r.reportEndToEnd(m); err != nil {
		return err
	}
	if !r.opts.trace {
		return nil
	}
	r.layer["cache.open_ms"] = openS * 1e3
	r.layer["service.results_bytes"] = float64(bodyLen)
	r.layer["service.roundtrip_p99_ms"] = percentile(m.timed.raw(), 99) * 1e3
	r.layer["service.retained_mb_per_sweep"] = (float64(m.live) - float64(live0)) / 1e6 / float64(iters)
	return r.traceSweepWarm(dir, spec, cells, want, m)
}

// warmProbeEvery is how many warm sweeps pass between two probes.
const warmProbeEvery = 250

// warmLoop resubmits the spec warmIters times to d, timing each round trip
// into timed (with a probe every warmProbeEvery) and checking each result
// against the cold pass, then checks that the store served every cell of
// every sweep. It returns the size of a results document.
func (r *run) warmLoop(d *daemon, spec []byte, cells int, want string, tr *tracer, timed *section) (int, error) {
	iters := r.size.warmIters
	var bodyLen int
	for i := 0; i < iters; i++ {
		sw := startWatch()
		body, err := r.roundTrip(d, spec, tr, i)
		wall, cpu := sw.stop()
		if err != nil {
			return 0, err
		}
		timed.add(wall, cpu)
		bodyLen = len(body)

		res, digest, err := r.checkResults(body, cells)
		if err != nil {
			return 0, err
		}
		r.tally.check(digest == want && res.CacheHits == cells,
			"warm sweep %d: digest %.12s with %d cells from cache, want %.12s with %d", i, digest, res.CacheHits, want, cells)
		if (i+1)%warmProbeEvery == 0 || i == iters-1 {
			timed.probed(r.probe())
		}
	}
	st := d.store.Stats()
	r.tally.check(st.Misses == 0 && st.Hits == int64(iters*cells),
		"warm store hits/misses %d/%d, want %d/0", st.Hits, st.Misses, iters*cells)
	return bodyLen, nil
}
