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
// payloads, decoded records, traces and pooled views are estimated to
// hold. 32 MiB holds the 12 cells of a 4-load × 3-seed, 400-flow sweep
// about a hundred times over.
const tableBudget = 32 << 20

// entryOverhead is what an entry is charged beyond the bytes it counts:
// the entry, its list element and map slot, a CellResult's or poolView's
// fixed fields.
const entryOverhead = 512

// table holds, by cell cache key, each cell result decoded from a store
// hit together with the payload it came from, and, by a load's ordered cell
// keys, the pooled view of that load. It is bounded by budget bytes and
// evicts least recently used entries first. Everything it returns is
// shared and read-only.
//
// A cell enters on its first store hit, never when computed: the store is
// still read and verified for every cell, and an entry is reused only for a
// payload byte-equal to its own. A pooled view is reused only while every
// cell of its load resolves to the entries it was pooled from.
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

	// A cell: the payload and its decoded result.
	payload []byte
	result  experiments.CellResult

	// A load: its pooled view and the ids of the cell entries it pooled.
	view poolView
	from []uint64
}

func newTable(budget int64) *table {
	return &table{budget: budget, byKey: make(map[string]*list.Element)}
}

// Decode implements experiments.CellTable: it returns the entry held under
// key when its payload equals payload, and otherwise decodes payload and
// admits the result.
func (t *table) Decode(key string, payload []byte) (experiments.CellResult, uint64, error) {
	if e := t.get(key); e != nil && bytes.Equal(e.payload, payload) {
		return e.result, e.id, nil
	}
	r, err := experiments.DecodeCellResult(payload)
	if err != nil {
		return experiments.CellResult{}, 0, err
	}
	size := int64(len(key)+cap(payload)+len(r.TraceJSONL)) +
		int64(len(r.Records))*int64(unsafe.Sizeof(metrics.FCTRecord{}))
	t.decoded.Add(1)
	e := t.add(&tableEntry{key: key, size: size, payload: payload, result: r}, func(old *tableEntry) bool {
		return bytes.Equal(old.payload, payload)
	})
	return e.result, e.id, nil
}

// view returns the pooled view of one load whose cells, in seed order, are
// results under keys, resolved to the cell entries from. It reuses the
// held view when it was pooled from exactly those entries, and otherwise
// pools results and admits the view if every cell came from an entry.
func (t *table) view(load float64, keys []string, from []uint64, results []experiments.CellResult) poolView {
	key := "load " + strings.Join(keys, " ")
	admit := !slices.Contains(from, 0)
	if admit {
		if e := t.get(key); e != nil && slices.Equal(e.from, from) {
			return e.view
		}
	}
	t.pooled.Add(1)
	p := experiments.PoolLoad(load, results)
	v := poolView{Load: p.Load, Stats: p.Stats,
		Counters: counterMap(p.Drops, p.Marks, p.Timeouts, p.Retransmits, p.Completed, p.Failed, p.Injected)}
	if admit {
		e := &tableEntry{key: key, size: int64(len(key) + 8*len(from)), view: v, from: slices.Clone(from)}
		t.add(e, func(old *tableEntry) bool { return slices.Equal(old.from, from) })
	}
	return v
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
