package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/trace"
)

// smallSweep is a 2-load × 2-seed grid small enough to run in well under a
// second per cell.
func smallSweep(t *testing.T) *SweepSpec {
	t.Helper()
	s, err := ParseSweepSpec([]byte(`{"loads":[0.4,0.7],"flows":40,"seeds":[1,2],"trace":{"events":"mark,flow_finish"}}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunCellsStoreIsInvisibleInBytes: a nil store, a cold store and a warm
// store all yield the same payload bytes per cell; only Cached differs.
func TestRunCellsStoreIsInvisibleInBytes(t *testing.T) {
	cells := smallSweep(t).Cells()
	opts := harness.Options{Parallel: 2}

	direct, err := RunCells(context.Background(), cells, nil, nil, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunCells(context.Background(), cells, nil, nil, store, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCells(context.Background(), cells, nil, nil, store, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(cells) || len(cold) != len(cells) || len(warm) != len(cells) {
		t.Fatalf("outcome counts %d/%d/%d, want %d", len(direct), len(cold), len(warm), len(cells))
	}
	for i, c := range cells {
		for name, o := range map[string]CellOutcome{"direct": direct[i], "cold": cold[i], "warm": warm[i]} {
			if o.Err != nil {
				t.Fatalf("cell %d %s: %v", i, name, o.Err)
			}
			if !reflect.DeepEqual(o.Result.Cell, c) {
				t.Errorf("cell %d %s: outcome out of submission order: %+v", i, name, o.Result.Cell)
			}
		}
		if len(direct[i].Payload) == 0 || direct[i].Result.TraceJSONL == "" {
			t.Errorf("cell %d: empty payload or trace", i)
		}
		if !bytes.Equal(direct[i].Payload, cold[i].Payload) {
			t.Errorf("cell %d: nil-store and cold-store payloads differ", i)
		}
		if !bytes.Equal(cold[i].Payload, warm[i].Payload) {
			t.Errorf("cell %d: warm payload differs from cold", i)
		}
		if direct[i].Cached || cold[i].Cached || !warm[i].Cached {
			t.Errorf("cell %d: cached flags direct=%v cold=%v warm=%v, want false/false/true",
				i, direct[i].Cached, cold[i].Cached, warm[i].Cached)
		}
	}
	if st := store.Stats(); st.Puts != int64(len(cells)) || st.Hits != int64(len(cells)) {
		t.Errorf("store saw %d puts and %d hits, want %d each (one Do per cell per pass)", st.Puts, st.Hits, len(cells))
	}
}

// recordingTable is a CellTable that holds no prior entries, decodes
// every payload itself and records the keys it was asked to decode.
type recordingTable struct {
	mu   sync.Mutex
	keys []string
}

func (rt *recordingTable) Prior(string) []byte { return nil }

func (rt *recordingTable) Decode(key string, entry, payload []byte) (CellResult, uint64, error) {
	rt.mu.Lock()
	rt.keys = append(rt.keys, key)
	rt.mu.Unlock()
	if !bytes.HasSuffix(entry, payload) {
		return CellResult{}, 0, errors.New("payload is not the tail of its entry")
	}
	r, err := DecodeCellResult(payload)
	return r, 7, err
}

// TestRunCellsTableDecodesOnlyHits: RunCells hands a table only the
// entries the store read, under their cells' keys (the caller's, when it
// passes them), and reports the table's entry id; computed cells are
// decoded without it.
func TestRunCellsTableDecodesOnlyHits(t *testing.T) {
	cells := smallSweep(t).Cells()
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := new(recordingTable)
	opts := harness.Options{Parallel: 2}
	cold, err := RunCells(context.Background(), cells, nil, nil, store, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.keys) != 0 {
		t.Errorf("computed cells reached the table: %v", rt.keys)
	}
	var want []string
	for _, c := range cells {
		want = append(want, c.Key(ResultSchemaVersion))
	}
	warm, err := RunCells(context.Background(), cells, want, nil, store, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(rt.keys)
	for i := range cells {
		if cold[i].Entry != 0 || warm[i].Entry != 7 {
			t.Errorf("cell %d: entries %d cold, %d warm; want 0 and 7", i, cold[i].Entry, warm[i].Entry)
		}
		if cold[i].Result.Report == nil || warm[i].Result.Report != nil {
			t.Errorf("cell %d: a report on the computed result is %t, on the decoded one %t; want true, false",
				i, cold[i].Result.Report != nil, warm[i].Result.Report != nil)
		}
		if cold[i].Result.Report = nil; !reflect.DeepEqual(cold[i].Result, warm[i].Result) {
			t.Errorf("cell %d: the table's result differs from the computed one", i)
		}
	}
	if slices.Sort(want); !slices.Equal(rt.keys, want) {
		t.Errorf("table asked for %v, want each cell's key once: %v", rt.keys, want)
	}
}

// TestRunCellsSinksStreamTheTrace: a cell given a sink streams to it the
// bytes its result captures without one and keeps no TraceJSONL, while its
// counters are unchanged; sinks next to a store are refused, since the
// store would keep results without their traces.
func TestRunCellsSinksStreamTheTrace(t *testing.T) {
	cells := smallSweep(t).Cells()
	opts := harness.Options{Parallel: 2}
	captured, err := RunCells(context.Background(), cells, nil, nil, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]bytes.Buffer, len(cells))
	writers := make([]*trace.JSONLWriter, len(cells))
	sinks := make([]trace.Tracer, len(cells))
	for i := range sinks {
		writers[i] = trace.NewJSONLWriter(&bufs[i])
		sinks[i] = writers[i]
	}
	streamed, err := RunCells(context.Background(), cells, nil, sinks, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range streamed {
		if o.Err != nil || writers[i].Flush() != nil {
			t.Fatalf("cell %d: %v", i, o.Err)
		}
		want := captured[i].Result
		if bufs[i].String() != want.TraceJSONL || o.Result.TraceJSONL != "" {
			t.Errorf("cell %d: sink got %d bytes, the captured trace is %d; the streamed result keeps %d",
				i, bufs[i].Len(), len(want.TraceJSONL), len(o.Result.TraceJSONL))
		}
		if o.Result.Marks != want.Marks || o.Result.Completed != want.Completed {
			t.Errorf("cell %d: a sink changed the run", i)
		}
	}
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCells(context.Background(), cells, nil, sinks, store, nil, opts); err == nil {
		t.Error("sinks with a store were not refused")
	}
}

// TestRunCellsReportsFailuresPerCell: one unrunnable cell fails alone, and
// OnDone sees every cell with its outcome.
func TestRunCellsReportsFailuresPerCell(t *testing.T) {
	cells := smallSweep(t).Cells()[:3]
	cells[1].Tuned = &TunedParams{}

	seen := make([]bool, len(cells))
	outcomes, err := RunCells(context.Background(), cells, nil, nil, nil, nil, harness.Options{Parallel: 1,
		OnDone: func(p harness.Progress) {
			seen[p.Index] = true
			if _, ok := p.Value.(*CellOutcome); ok == (p.Err != nil) {
				t.Errorf("cell %d: Progress.Value %T with Err %v", p.Index, p.Value, p.Err)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if !seen[i] {
			t.Errorf("cell %d: OnDone never fired", i)
		}
		if failed := i == 1; (o.Err != nil) != failed {
			t.Errorf("cell %d: err = %v", i, o.Err)
		}
	}
	if msg := outcomes[1].Err.Error(); !strings.Contains(msg, "ECN# load=0.40 seed=2") || !strings.Contains(msg, "at least one group") {
		t.Errorf("failure does not name the cell and the cause: %s", msg)
	}
	if outcomes[0].Result.Completed == 0 || outcomes[2].Result.Completed == 0 {
		t.Error("the failing cell hid its neighbours' results")
	}
}

// TestRunCellsCanceled: a canceled context is RunCells' own error, and no
// cell pretends to have a result.
func TestRunCellsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outcomes, err := RunCells(ctx, smallSweep(t).Cells(), nil, nil, nil, nil, harness.Options{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, o := range outcomes {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", i, o.Err)
		}
	}
}

// TestPoolEqualsDirectRuns ties pooling to the runs themselves: pooling the
// cell results of one load over two seeds gives the statistics of the two
// RunContext runs' records, seed after seed, and the sums of their seven
// counters, and a second load lands in its own pool.
func TestPoolEqualsDirectRuns(t *testing.T) {
	spec := smallSweep(t)
	cells := spec.Cells()
	outcomes, err := RunCells(context.Background(), cells, nil, nil, nil, nil, harness.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]CellResult, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		results[i] = o.Result
	}
	pools := spec.Pool(results)
	if len(pools) != len(spec.Loads) {
		t.Fatalf("%d pools, want %d", len(pools), len(spec.Loads))
	}
	for li, load := range spec.Loads {
		records := metrics.NewFCTCollector()
		var wantC [7]int64
		for _, c := range cells[li*len(spec.Seeds) : (li+1)*len(spec.Seeds)] {
			cfg, err := c.RunConfig()
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunContext(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			records.Merge(r.Collector)
			for i, n := range [7]int64{r.Drops, r.Marks, r.Timeouts, r.Retransmits,
				int64(r.Completed), int64(r.Failed), int64(r.Injected)} {
				wantC[i] += n
			}
		}
		got := pools[li]
		if got.Load != load {
			t.Errorf("pool %d: load %v, want %v", li, got.Load, load)
		}
		if want := records.Stats(); got.Stats != want {
			t.Errorf("load %v: pooled stats differ:\n pool %+v\n runs %+v", load, got.Stats, want)
		}
		if !slices.Equal(got.Records, records.Records()) {
			t.Errorf("load %v: %d pooled records, not the runs' %d in seed order", load, len(got.Records), len(records.Records()))
		}
		gotC := [7]int64{got.Drops, got.Marks, got.Timeouts, got.Retransmits,
			int64(got.Completed), int64(got.Failed), int64(got.Injected)}
		if gotC != wantC {
			t.Errorf("load %v: counters %v, want %v", load, gotC, wantC)
		}
		if got.Injected != 2*spec.Flows {
			t.Errorf("load %v: injected %d, want %d", load, got.Injected, 2*spec.Flows)
		}
	}
}
