package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/metrics"
)

// tableSpec is two loads of two seeds: two pooled views over four cells.
const tableSpec = `{"loads": [0.4, 0.7], "flows": 20, "seeds": [1, 2]}`

// counts reads the table's decode and pool counters.
func counts(tb *table) (decoded, pooled int64) {
	return tb.decoded.Load(), tb.pooled.Load()
}

// runSweep submits spec, waits for it to finish done, and returns its id.
func runSweep(t *testing.T, base, spec string) string {
	t.Helper()
	id := submit(t, base, spec)
	events := streamEvents(t, base, id)
	if done := events[len(events)-1]; done["state"] != "done" {
		t.Fatalf("sweep %s finished %v: %v", id, done["state"], done["error"])
	}
	return id
}

// resultsOf fetches a finished sweep's results document and re-marshals it
// without the fields that name the sweep or say how it was served: id, the
// per-cell cached flags and, with hits false, cache_hits.
func resultsOf(t *testing.T, base, id string, hits bool) []byte {
	t.Helper()
	var doc map[string]any
	if resp := getJSON(t, base+"/v1/sweeps/"+id+"/results", &doc); resp.StatusCode != 200 {
		t.Fatalf("results of %s: status %d", id, resp.StatusCode)
	}
	delete(doc, "id")
	if !hits {
		delete(doc, "cache_hits")
	}
	for _, c := range doc["cells"].([]any) {
		delete(c.(map[string]any), "cached")
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResubmittedSweepDecodesAndPoolsNothing: a cold sweep admits nothing,
// its first resubmission decodes every cell and pools every load once, and
// the next one is served from the table entirely, with the same results
// document.
func TestResubmittedSweepDecodesAndPoolsNothing(t *testing.T) {
	srv, base := newTestDaemon(t, Config{Parallel: 2})
	cold := runSweep(t, base, tableSpec)
	if d, p := counts(srv.table); d != 0 || p != 2 {
		t.Errorf("cold sweep: decoded %d, pooled %d; want 0 and 2", d, p)
	}
	srv.table.mu.Lock()
	if n := srv.table.lru.Len(); n != 0 {
		t.Errorf("cold sweep admitted %d entries, want 0", n)
	}
	srv.table.mu.Unlock()

	warm := runSweep(t, base, tableSpec)
	if d, p := counts(srv.table); d != 4 || p != 4 {
		t.Errorf("first resubmission: decoded %d, pooled %d in all; want 4 and 4", d, p)
	}
	again := runSweep(t, base, tableSpec)
	if d, p := counts(srv.table); d != 4 || p != 4 {
		t.Errorf("second resubmission: decoded %d, pooled %d in all; want no more than 4 and 4", d, p)
	}

	// A resubmitted spec shares its grid with the sweep before it.
	srv.mu.Lock()
	if a, b := srv.jobs[warm].work.(*sweep).grid, srv.jobs[again].work.(*sweep).grid; a != b {
		t.Errorf("resubmitted spec parsed again: grids %p and %p", a, b)
	}
	srv.mu.Unlock()

	// A cell served from the table has its stats JSON spliced into its
	// stream event: the line must be what Marshal writes for the event.
	cells := 0
	for _, line := range bytes.SplitAfter(getBody(base+"/v1/sweeps/"+again+"/stream"), []byte("\n")) {
		var stats json.RawMessage
		ev := streamEvent{CellStats: &stats}
		if err := json.Unmarshal(line, &ev); err != nil || ev.Type != "cell" {
			continue
		}
		cells++
		if want := append(mustMarshal(ev), '\n'); !bytes.Equal(line, want) {
			t.Errorf("table-served cell event:\n%s\nMarshal writes it as\n%s", line, want)
		}
	}
	if cells != 4 {
		t.Errorf("stream of %s has %d cell events, want 4", again, cells)
	}

	if w, a := resultsOf(t, base, warm, true), resultsOf(t, base, again, true); !bytes.Equal(w, a) {
		t.Errorf("results served from the table differ:\n%s\n%s", w, a)
	}
	if c, a := resultsOf(t, base, cold, false), resultsOf(t, base, again, false); !bytes.Equal(c, a) {
		t.Errorf("results served from the table differ from the computed ones:\n%s\n%s", c, a)
	}
}

// cellKeys returns the cache keys of tableSpec's cells.
func cellKeys(t *testing.T) []string {
	t.Helper()
	spec, err := experiments.ParseSweepSpec([]byte(tableSpec))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, c := range spec.Cells() {
		keys = append(keys, c.Key(experiments.ResultSchemaVersion))
	}
	return keys
}

// cellCached reports whether a finished sweep's cell was served by the
// store.
func cellCached(t *testing.T, base, id string, index int) bool {
	t.Helper()
	var status struct {
		Cells []struct{ Cached *bool } `json:"cells"`
	}
	getJSON(t, base+"/v1/sweeps/"+id, &status)
	return *status.Cells[index].Cached
}

// TestTableNeverServesChangedBytes: once a store entry's bytes change, the
// table's entry for them is not served. A corrupted entry is a store miss,
// recomputed, and never reaches the table; a rewritten one is a hit whose
// new bytes are decoded and pooled afresh.
func TestTableNeverServesChangedBytes(t *testing.T) {
	srv, base := newTestDaemon(t, Config{Parallel: 2})
	store := srv.cfg.Store
	keys := cellKeys(t)
	cold := runSweep(t, base, tableSpec)
	runSweep(t, base, tableSpec) // admits every cell and load
	want := resultsOf(t, base, cold, false)

	t.Run("corrupted", func(t *testing.T) {
		path := filepath.Join(store.Dir(), keys[0][:2], keys[0]+".entry")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-2] ^= 0x20
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		d0, p0 := counts(srv.table)
		id := runSweep(t, base, tableSpec)
		if cellCached(t, base, id, 0) {
			t.Error("corrupted cell reported cached")
		}
		// Cell 0 was computed, so it came from no entry and its load is
		// pooled again; the other load is reused.
		if d, p := counts(srv.table); d != d0 || p != p0+1 {
			t.Errorf("decoded %d, pooled %d more; want 0 and 1", d-d0, p-p0)
		}
		if got := resultsOf(t, base, id, false); !bytes.Equal(got, want) {
			t.Errorf("recomputed results differ:\n%s\n%s", got, want)
		}
		if st := store.Stats(); st.Corruptions != 1 {
			t.Errorf("store counted %d corruptions, want 1", st.Corruptions)
		}
	})

	t.Run("rewritten", func(t *testing.T) {
		payload, ok, err := store.Get(keys[3])
		if !ok || err != nil {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		res, err := experiments.DecodeCellResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		res.Drops += 1000
		rewritten, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(keys[3], rewritten); err != nil {
			t.Fatal(err)
		}
		d0, p0 := counts(srv.table)
		id := runSweep(t, base, tableSpec)
		if !cellCached(t, base, id, 3) {
			t.Error("rewritten cell not served by the store")
		}
		if d, p := counts(srv.table); d != d0+1 || p != p0+1 {
			t.Errorf("decoded %d, pooled %d more; want 1 and 1", d-d0, p-p0)
		}
		var doc struct {
			Pooled []struct{ Counters map[string]int64 } `json:"pooled"`
			Cells  []struct{ Counters map[string]int64 } `json:"cells"`
		}
		var was struct {
			Pooled []struct{ Counters map[string]int64 } `json:"pooled"`
		}
		getJSON(t, base+"/v1/sweeps/"+id+"/results", &doc)
		getJSON(t, base+"/v1/sweeps/"+cold+"/results", &was)
		if got := doc.Cells[3].Counters["drops"]; got != res.Drops {
			t.Errorf("cell 3 drops %d, want the rewritten %d", got, res.Drops)
		}
		if got, w := doc.Pooled[1].Counters["drops"], was.Pooled[1].Counters["drops"]+1000; got != w {
			t.Errorf("load 1 pooled drops %d, want %d", got, w)
		}
	})
}

// tableEntryBytes returns a store entry whose payload is a cell result with n
// records, and that payload. The table reads only the payload, so the
// header line is a stand-in.
func tableEntryBytes(t *testing.T, seed int64, n int) (entry, payload []byte) {
	t.Helper()
	entry = append([]byte("{}\n"), tablePayload(t, seed, n)...)
	return entry, entry[3:]
}

// tablePayload encodes a cell result with n records.
func tablePayload(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	r := experiments.CellResult{SchemaVersion: experiments.ResultSchemaVersion,
		Cell: experiments.Cell{Topo: "star", Scheme: "ecnsharp", Workload: "websearch",
			Load: 0.5, Flows: n, Seed: seed, RTTMinUS: 70, RTTVariation: 3}}
	for i := range n {
		r.Records = append(r.Records, metrics.FCTRecord{Size: int64(1000 + i), FCT: 5000})
	}
	r.Stats = metrics.StatsOf(r.Records)
	payload, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestTableEvictsLeastRecentlyUsed: past its budget the table drops its
// least recently used entries first and never holds more than the budget;
// an entry larger than the whole budget is decoded but not admitted.
func TestTableEvictsLeastRecentlyUsed(t *testing.T) {
	entries := make([][]byte, 5)
	payloads := make([][]byte, 5)
	for i := range payloads {
		entries[i], payloads[i] = tableEntryBytes(t, int64(i), 100)
	}
	sizer := newTable(1 << 30)
	if _, _, err := sizer.Decode("k0", entries[0], payloads[0]); err != nil {
		t.Fatal(err)
	}
	one := sizer.bytes // each of the five is charged as much
	if min := int64(len("k0")+len(entries[0])+100*24) + entryOverhead; one < min {
		t.Fatalf("an entry is charged %d bytes, less than its key, store entry and records (%d)", one, min)
	}
	tb := newTable(3*one + one/2) // room for three entries
	held := func() []string {
		var keys []string
		for el := tb.lru.Front(); el != nil; el = el.Next() {
			keys = append(keys, el.Value.(*tableEntry).key)
		}
		return keys
	}
	decode := func(key string, entry, payload []byte) uint64 {
		t.Helper()
		_, id, err := tb.Decode(key, entry, payload)
		if err != nil {
			t.Fatal(err)
		}
		if tb.bytes > tb.budget {
			t.Fatalf("after %s: %d bytes held, budget %d", key, tb.bytes, tb.budget)
		}
		return id
	}

	for i := range 3 {
		decode(fmt.Sprint("k", i), entries[i], payloads[i])
	}
	decode("k0", entries[0], payloads[0]) // k0 is now the most recently used
	decode("k3", entries[3], payloads[3])
	if got := fmt.Sprint(held()); got != "[k3 k0 k2]" {
		t.Errorf("held %s, want [k3 k0 k2] (k1 least recently used)", got)
	}
	decode("k4", entries[4], payloads[4])
	if got := fmt.Sprint(held()); got != "[k4 k3 k0]" {
		t.Errorf("held %s, want [k4 k3 k0]", got)
	}
	if d, _ := counts(tb); d != 5 {
		t.Errorf("decoded %d payloads, want 5 (k0 once)", d)
	}

	bigEntry, big := tableEntryBytes(t, 9, 1000)
	if id := decode("big", bigEntry, big); id != 0 {
		t.Errorf("an entry above the budget was admitted as %d", id)
	}
	if got := fmt.Sprint(held()); got != "[k4 k3 k0]" {
		t.Errorf("held %s after an oversized entry, want [k4 k3 k0]", got)
	}
}

// TestConcurrentIdenticalSubmissions: sixteen identical sweeps submitted at
// once, cold and then warm, all finish with the same results; one
// execution per cell, and concurrent first hits admit one entry per cell.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	srv, base := newTestDaemon(t, Config{Parallel: 2})
	const n = 16
	round := func() [][]byte {
		ids := make([]string, n)
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(tableSpec))
				if err != nil {
					t.Errorf("submission %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				var sub struct{ ID string }
				if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("submission %d: status %d, %v", i, resp.StatusCode, err)
				}
				ids[i] = sub.ID
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		docs := make([][]byte, n)
		for i, id := range ids {
			streamEvents(t, base, id)
			docs[i] = resultsOf(t, base, id, false)
		}
		return docs
	}
	for r, docs := range [][][]byte{round(), round()} {
		for i := range docs {
			if !bytes.Equal(docs[i], docs[0]) {
				t.Errorf("round %d: sweep %d results differ:\n%s\n%s", r, i, docs[i], docs[0])
			}
		}
	}
	if st := srv.cfg.Store.Stats(); st.Puts != 4 {
		t.Errorf("store put %d cells, want 4", st.Puts)
	}
	srv.table.mu.Lock()
	defer srv.table.mu.Unlock()
	if cells := len(srv.table.byKey); cells > 4+2 {
		t.Errorf("table holds %d entries, want at most 4 cells and 2 loads", cells)
	}
}

// TestSweepSurvivesCacheIOErrors: a cell whose store entry can be neither
// read nor written (a regular file stands where its shard directory
// belongs) is computed and served uncached, the sweep finishes done with
// the results of a daemon whose store works, and /v1/cache/stats counts a
// failed read and a failed write for each such cell of each sweep.
func TestSweepSurvivesCacheIOErrors(t *testing.T) {
	srv, base := newTestDaemon(t, Config{Parallel: 2})
	keys := cellKeys(t)
	shard := keys[0][:2]
	if err := os.WriteFile(filepath.Join(srv.cfg.Store.Dir(), shard), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	blocked := 0
	for _, k := range keys {
		if k[:2] == shard {
			blocked++
		}
	}
	first := runSweep(t, base, tableSpec)
	again := runSweep(t, base, tableSpec)
	if cellCached(t, base, again, 0) {
		t.Error("a cell whose entry cannot be stored was reported cached")
	}
	var st struct {
		Errors int64 `json:"cache_errors"`
		Puts   int64 `json:"puts"`
	}
	getJSON(t, base+"/v1/cache/stats", &st)
	if st.Errors != int64(4*blocked) || st.Puts != int64(len(keys)-blocked) {
		t.Errorf("cache_errors %d, puts %d; want %d and %d", st.Errors, st.Puts, 4*blocked, len(keys)-blocked)
	}

	_, ref := newTestDaemon(t, Config{Parallel: 2})
	want := resultsOf(t, ref, runSweep(t, ref, tableSpec), false)
	for _, id := range []string{first, again} {
		if got := resultsOf(t, base, id, false); !bytes.Equal(got, want) {
			t.Errorf("%s: results differ from a working store's:\n%s\n%s", id, got, want)
		}
	}
}
