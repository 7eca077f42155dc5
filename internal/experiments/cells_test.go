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

	direct, err := RunCells(context.Background(), cells, nil, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(t.TempDir(), cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunCells(context.Background(), cells, nil, store, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCells(context.Background(), cells, nil, store, nil, opts)
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
	cold, err := RunCells(context.Background(), cells, nil, store, rt, opts)
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
	warm, err := RunCells(context.Background(), cells, want, store, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(rt.keys)
	for i := range cells {
		if cold[i].Entry != 0 || warm[i].Entry != 7 {
			t.Errorf("cell %d: entries %d cold, %d warm; want 0 and 7", i, cold[i].Entry, warm[i].Entry)
		}
		if !reflect.DeepEqual(cold[i].Result, warm[i].Result) {
			t.Errorf("cell %d: the table's result differs from the computed one", i)
		}
	}
	if slices.Sort(want); !slices.Equal(rt.keys, want) {
		t.Errorf("table asked for %v, want each cell's key once: %v", rt.keys, want)
	}
}

// TestRunCellsReportsFailuresPerCell: one unrunnable cell fails alone, and
// OnDone sees every cell with its outcome.
func TestRunCellsReportsFailuresPerCell(t *testing.T) {
	cells := smallSweep(t).Cells()[:3]
	cells[1].Tuned = &TunedParams{}

	seen := make([]bool, len(cells))
	outcomes, err := RunCells(context.Background(), cells, nil, nil, nil, harness.Options{Parallel: 1,
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
	outcomes, err := RunCells(ctx, smallSweep(t).Cells(), nil, nil, nil, harness.Options{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, o := range outcomes {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", i, o.Err)
		}
	}
}

// TestPoolEqualsMergeRuns ties the two pooling layers together: pooling the
// cell results of one load over two seeds gives the statistics and the seven
// counters MergeRuns gives for RunContext on the same two configurations,
// and a second load lands in its own pool.
func TestPoolEqualsMergeRuns(t *testing.T) {
	spec := smallSweep(t)
	cells := spec.Cells()
	outcomes, err := RunCells(context.Background(), cells, nil, nil, nil, harness.Options{Parallel: 2})
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
		var runs []RunResult
		for _, c := range cells[li*len(spec.Seeds) : (li+1)*len(spec.Seeds)] {
			cfg, err := c.RunConfig()
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunContext(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
		want, got := MergeRuns(runs), pools[li]
		if got.Load != load {
			t.Errorf("pool %d: load %v, want %v", li, got.Load, load)
		}
		if got.Stats != want.Stats {
			t.Errorf("load %v: pooled stats differ:\n pool  %+v\n merge %+v", load, got.Stats, want.Stats)
		}
		if len(got.Records) != len(want.Collector.Records()) {
			t.Errorf("load %v: %d pooled records, want %d", load, len(got.Records), len(want.Collector.Records()))
		}
		gotC := [7]int64{got.Drops, got.Marks, got.Timeouts, got.Retransmits,
			int64(got.Completed), int64(got.Failed), int64(got.Injected)}
		wantC := [7]int64{want.Drops, want.Marks, want.Timeouts, want.Retransmits,
			int64(want.Completed), int64(want.Failed), int64(want.Injected)}
		if gotC != wantC {
			t.Errorf("load %v: counters %v, want %v", load, gotC, wantC)
		}
		if got.Injected != 2*spec.Flows {
			t.Errorf("load %v: injected %d, want %d", load, got.Injected, 2*spec.Flows)
		}
	}
}
