package service

import (
	"bytes"
	"container/list"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/metrics"
)

// tableBudget is the byte budget of a Server's table: what its entries'
// store entries, decoded records, traces, results JSON and pooled views are
// estimated to hold. 32 MiB holds the 12 cells of a 4-load × 3-seed,
// 400-flow sweep about a hundred times over.
const tableBudget = 32 << 20

// finishedJobs is how many finished jobs of each kind a Server keeps: a
// finished job is dropped once finishedJobs newer jobs of its kind have
// finished, and its id then answers 410. Running jobs are always kept.
const finishedJobs = 128

// entryOverhead is what an entry is charged beyond the bytes it counts:
// the entry, its list element and map slot, a CellResult's or poolView's
// fixed fields.
const entryOverhead = 512

// table holds, by cell cache key, each cell result decoded from a store
// hit together with the store entry it came from and its results JSON,
// and, by a load's ordered cell keys, the pooled view of that load. It is
// bounded by budget bytes and evicts least recently used entries first.
// Everything it returns is shared and read-only.
//
// A cell enters on its first store hit, never when computed. The store is
// still read for every cell: a file equal to the held entry bytes is
// served without verifying it again (it passed before, and verification is
// a function of those bytes), any other is verified, and an entry is
// reused only for a store entry byte-equal to its own. A pooled view is
// reused only while every cell of its load resolves to the entries it was
// pooled from.
type table struct {
	budget int64

	mu     sync.Mutex
	lru    list.List // of *tableEntry, most recently used first
	byKey  map[string]*list.Element
	bytes  int64
	lastID uint64

	// decoded and pooled count the payloads the table decoded and the
	// loads it pooled; tests read them.
	decoded, pooled atomic.Int64
}

// tableEntry is one cell or one pooled load.
type tableEntry struct {
	key  string
	id   uint64
	size int64

	// A cell: the store entry (header line and payload), the result
	// decoded from its payload, and the result's JSON as encodeCell
	// renders it. A load: its pooled view's JSON, and the ids of the cell
	// entries it pooled.
	entry  []byte
	result experiments.CellResult
	json   []byte
	stats  []byte // a cell's "stats" value, a slice of json
	from   []uint64
}

func newTable(budget int64) *table {
	return &table{budget: budget, byKey: make(map[string]*list.Element)}
}

// Prior implements experiments.CellTable: the store entry held under key,
// or nil.
func (t *table) Prior(key string) []byte {
	if e := t.get(key); e != nil {
		return e.entry
	}
	return nil
}

// Decode implements experiments.CellTable: it returns the entry held under
// key when its store entry equals entry, and otherwise decodes payload and
// admits the result with entry and its results JSON.
func (t *table) Decode(key string, entry, payload []byte) (experiments.CellResult, uint64, error) {
	if e := t.get(key); e != nil && bytes.Equal(e.entry, entry) {
		return e.result, e.id, nil
	}
	r, err := experiments.DecodeCellResult(payload)
	if err != nil {
		return experiments.CellResult{}, 0, err
	}
	js, stats := encodeCell(&r)
	size := int64(len(key)+cap(entry)+len(js)+len(r.TraceJSONL)) +
		int64(len(r.Records))*int64(unsafe.Sizeof(metrics.FCTRecord{}))
	t.decoded.Add(1)
	e := t.add(&tableEntry{key: key, size: size, entry: entry, result: r, json: js, stats: stats}, func(old *tableEntry) bool {
		return bytes.Equal(old.entry, entry)
	})
	return e.result, e.id, nil
}

// cellJSON returns the JSON of the cell entry under key, and of its stats,
// when that is still entry id; nil otherwise.
func (t *table) cellJSON(key string, id uint64) (doc, stats []byte) {
	if id == 0 {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el := t.byKey[key]; el != nil {
		if e := el.Value.(*tableEntry); e.id == id {
			return e.json, e.stats
		}
	}
	return nil, nil
}

// view returns the JSON of the pooled view of one load whose cells, in
// seed order, are results under keys, resolved to the cell entries from.
// It reuses the held view when it was pooled from exactly those entries,
// and otherwise pools and encodes results and admits the view if every
// cell came from an entry.
func (t *table) view(load float64, keys []string, from []uint64, results []experiments.CellResult) []byte {
	key := "load " + strings.Join(keys, " ")
	admit := !slices.Contains(from, 0)
	if admit {
		if e := t.get(key); e != nil && slices.Equal(e.from, from) {
			return e.json
		}
	}
	t.pooled.Add(1)
	p := experiments.PoolLoad(load, results)
	js := mustMarshal(poolView{Load: p.Load, Stats: p.Stats,
		Counters: counterMap(p.Drops, p.Marks, p.Timeouts, p.Retransmits, p.Completed, p.Failed, p.Injected)})
	if admit {
		e := &tableEntry{key: key, size: int64(len(key) + 8*len(from) + len(js)), json: js, from: slices.Clone(from)}
		t.add(e, func(old *tableEntry) bool { return slices.Equal(old.from, from) })
	}
	return js
}

// get returns the entry under key, now the most recently used, or nil.
func (t *table) get(key string) *tableEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	el := t.byKey[key]
	if el == nil {
		return nil
	}
	t.lru.MoveToFront(el)
	return el.Value.(*tableEntry)
}

// add admits e under its key and returns the entry now held there: the one
// already there if same says it holds what e does (a concurrent caller
// admitted it first), e otherwise. An entry above the whole budget is not
// admitted and keeps id 0. Least recently used entries are evicted until
// the table fits its budget.
func (t *table) add(e *tableEntry, same func(old *tableEntry) bool) *tableEntry {
	e.size += entryOverhead
	t.mu.Lock()
	defer t.mu.Unlock()
	if el := t.byKey[e.key]; el != nil {
		if old := el.Value.(*tableEntry); same(old) {
			t.lru.MoveToFront(el)
			return old
		}
		t.remove(el)
	}
	if e.size > t.budget {
		return e
	}
	t.lastID++
	e.id = t.lastID
	t.byKey[e.key] = t.lru.PushFront(e)
	t.bytes += e.size
	for t.bytes > t.budget {
		t.remove(t.lru.Back())
	}
	return e
}

// remove drops one entry; caller holds t.mu.
func (t *table) remove(el *list.Element) {
	e := t.lru.Remove(el).(*tableEntry)
	delete(t.byKey, e.key)
	t.bytes -= e.size
}
