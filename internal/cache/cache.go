// Package cache is a content-addressed on-disk result store: byte payloads
// keyed by a caller-derived content hash (for ecnsharp, the canonical hash
// of a resolved (config, seed, schema-version) cell — see
// experiments.Cell.Key). It exists so sweep traffic that recomputes
// identical cells becomes O(new cells): the daemon asks Do(key, compute)
// and the store returns the stored bytes, joins an in-flight computation
// of the same key, or runs compute exactly once and persists the result.
//
// Guarantees:
//
//   - Atomic writes: entries appear via temp-file + rename, so a crashed
//     writer never leaves a half-entry under a valid name.
//   - Corruption detection: every entry embeds a SHA-256 of its payload;
//     a mismatch (truncation, bit rot, hand-editing) deletes the entry and
//     reports a miss — the caller recomputes, nothing crashes. A caller
//     that kept the bytes of an earlier hit may hand them back (GetPrior,
//     DoPrior): a file equal to them is served without parsing or hashing
//     it again, any other file is verified in full.
//   - I/O failures are misses: a read that fails is a miss and a write
//     that fails leaves the computed bytes uncached; both are counted in
//     Stats.Errors, and only a malformed key is an error.
//   - In-flight dedupe: concurrent Do calls for one key share a single
//     compute execution and all receive its bytes.
//   - Bounded size: when the store exceeds its byte budget, least-recently
//     used entries are evicted (recency is in-memory per process, seeded
//     from file modification times at Open).
//
// The store itself is deliberately value-agnostic — it stores bytes, not
// results — which keeps the determinism argument local: if the payload
// bytes are a pure function of the key's preimage (true for the
// simulator's serialized results; see DESIGN.md "Service & result cache"),
// a hit is indistinguishable from a recomputation.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Options configure a store.
type Options struct {
	// MaxBytes bounds the total payload bytes kept on disk; 0 means
	// unbounded. Eviction runs after each Put and removes least-recently
	// used entries until the store fits.
	MaxBytes int64
}

// Stats is a snapshot of the store's counters and occupancy.
type Stats struct {
	// Hits and Misses count Get outcomes (a corrupt entry counts as a
	// miss and a Corruption).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Shared counts Do calls that joined an in-flight computation
	// instead of starting their own.
	Shared int64 `json:"shared"`
	// Puts, Evictions and Corruptions count entry writes, LRU removals,
	// and checksum-mismatch deletions.
	Puts        int64 `json:"puts"`
	Evictions   int64 `json:"evictions"`
	Corruptions int64 `json:"corruptions"`
	// Errors counts failed entry reads (each also a miss) and failed
	// entry writes (each leaving the computed bytes uncached).
	Errors int64 `json:"cache_errors"`
	// Entries and Bytes are the current occupancy (payload bytes).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes echoes the configured budget (0 = unbounded).
	MaxBytes int64 `json:"max_bytes"`
}

// Store is a content-addressed on-disk byte store. All methods are safe
// for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	entries  map[string]*entry
	clock    uint64 // logical access clock for LRU
	bytes    int64
	inflight map[string]*flight
	stats    Stats
}

// entry is the in-memory index record of one on-disk entry.
type entry struct {
	size     int64
	lastUsed uint64
}

// flight is one in-progress computation that concurrent Do calls join.
type flight struct {
	done  chan struct{}
	entry []byte // the entry bytes val was read from; nil when computed
	val   []byte
	err   error
}

// header is the first line of an entry file; the payload follows the
// newline verbatim.
type header struct {
	V   int    `json:"v"`
	Key string `json:"key"`
	Sum string `json:"sha256"`
	Len int64  `json:"len"`
}

// headerVersion is the on-disk entry format version.
const headerVersion = 1

// Open loads (or creates) a store rooted at dir. Existing entries are
// indexed by scanning the directory; their LRU order is seeded from file
// modification times (newest = most recently used), so eviction fairness
// survives restarts approximately. Payload integrity is not verified at
// Open — Get verifies on every read.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		entries:  make(map[string]*entry),
		inflight: make(map[string]*flight),
	}

	type found struct {
		key  string
		size int64
		mod  int64
	}
	var scan []found
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".entry") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		key := strings.TrimSuffix(d.Name(), ".entry")
		scan = append(scan, found{key: key, size: info.Size(), mod: info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cache: scanning %s: %w", dir, err)
	}
	sort.Slice(scan, func(i, j int) bool {
		if scan[i].mod != scan[j].mod {
			return scan[i].mod < scan[j].mod
		}
		return scan[i].key < scan[j].key
	})
	for _, f := range scan {
		s.clock++
		s.entries[f.key] = &entry{size: f.size, lastUsed: s.clock}
		s.bytes += f.size
	}
	s.stats.Entries = len(s.entries)
	s.stats.Bytes = s.bytes
	return s, nil
}

// path returns the entry file for key, sharded by the first two hex chars
// to keep directories small under millions of entries.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".entry")
}

// validKey rejects keys that could escape the store directory or collide
// with its file naming. Content hashes (hex digests) always pass.
func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("cache: empty key")
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("cache: invalid key %q (byte %q)", key, c)
		}
	}
	if strings.HasPrefix(key, ".") {
		return fmt.Errorf("cache: invalid key %q (leading dot)", key)
	}
	return nil
}

// Get returns the payload stored under key. ok is false on a miss — absent
// entry, an entry whose checksum, length or recorded key does not match
// (the corrupt file is deleted and counted in Stats.Corruptions), or a read
// that failed (counted in Stats.Errors). The returned error reports a
// malformed key.
func (s *Store) Get(key string) (payload []byte, ok bool, err error) {
	_, payload, ok, err = s.GetPrior(key, nil)
	return payload, ok, err
}

// GetPrior is Get for a caller that kept the entry of an earlier hit on key:
// on a hit it also returns entry, the entry file's bytes (header line and
// payload), of which payload is the tail. Given such bytes back as prior, a
// read that finds the file byte-equal to them serves prior and its payload
// without parsing or hashing: verify is a pure function of key and the
// file's bytes, and prior passed it. Any other file is verified in full.
// The whole file is still read, and hits, misses and recency are counted
// exactly as by Get.
func (s *Store) GetPrior(key string, prior []byte) (entry, payload []byte, ok bool, err error) {
	if err := validKey(key); err != nil {
		return nil, nil, false, err
	}
	data, same, err := readEntry(s.path(key), prior)
	if err != nil {
		s.mu.Lock()
		s.stats.Misses++
		if !errors.Is(err, fs.ErrNotExist) {
			s.stats.Errors++
		}
		s.mu.Unlock()
		return nil, nil, false, nil
	}
	if same {
		entry, payload = prior, prior[bytes.IndexByte(prior, '\n')+1:]
	} else if payload, err = verify(key, data); err != nil {
		s.discardCorrupt(key)
		return nil, nil, false, nil
	} else {
		entry = data
	}
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		s.clock++
		e.lastUsed = s.clock
	}
	s.stats.Hits++
	s.mu.Unlock()
	return entry, payload, true, nil
}

// readEntry reads the entry file at path whole. Given a non-empty prior, it
// reads the file through a fixed buffer, comparing as it goes, and reports
// same with no data when the file equals prior byte for byte; a file that
// differs is read again whole into data.
func readEntry(path string, prior []byte) (data []byte, same bool, err error) {
	if len(prior) == 0 {
		data, err = os.ReadFile(path)
		return data, false, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	var buf [8 << 10]byte // stays on the stack: an unchanged entry allocates nothing
	for rest := prior; ; {
		n, err := f.Read(buf[:])
		if n > len(rest) || !bytes.Equal(buf[:n], rest[:n]) {
			break
		}
		rest = rest[n:]
		if err == io.EOF {
			if len(rest) == 0 {
				return nil, true, nil
			}
			break
		}
		if err != nil {
			return nil, false, err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, false, err
	}
	data, err = io.ReadAll(f)
	return data, false, err
}

// verify parses an entry file and returns its payload, or an error
// describing the corruption.
func verify(key string, data []byte) ([]byte, error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	var h header
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return nil, fmt.Errorf("bad header: %w", err)
	}
	if h.V != headerVersion {
		return nil, fmt.Errorf("entry format v%d, want v%d", h.V, headerVersion)
	}
	if h.Key != key {
		return nil, fmt.Errorf("entry records key %s", h.Key)
	}
	payload := data[nl+1:]
	if int64(len(payload)) != h.Len {
		return nil, fmt.Errorf("payload length %d, header says %d", len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.Sum {
		return nil, fmt.Errorf("payload checksum mismatch")
	}
	return payload, nil
}

// discardCorrupt removes a failed-verification entry and accounts for it.
func (s *Store) discardCorrupt(key string) {
	path := s.path(key)
	var size int64
	if info, err := os.Stat(path); err == nil {
		size = info.Size()
	}
	os.Remove(path)
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		delete(s.entries, key)
		s.bytes -= size
		if s.bytes < 0 {
			s.bytes = 0
		}
	}
	s.stats.Corruptions++
	s.stats.Misses++
	s.stats.Entries = len(s.entries)
	s.stats.Bytes = s.bytes
	s.mu.Unlock()
}

// Put stores payload under key atomically: the entry is written to a temp
// file in the store and renamed into place, then the LRU eviction pass
// trims the store to its byte budget. Re-putting an existing key
// overwrites it.
func (s *Store) Put(key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return s.writeFailed(err)
	}
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(header{
		V: headerVersion, Key: key,
		Sum: hex.EncodeToString(sum[:]), Len: int64(len(payload)),
	})
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return s.writeFailed(err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	for _, chunk := range [][]byte{hdr, {'\n'}, payload} {
		if _, err := tmp.Write(chunk); err != nil {
			cleanup()
			return s.writeFailed(err)
		}
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return s.writeFailed(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return s.writeFailed(err)
	}
	size := int64(len(hdr)) + 1 + int64(len(payload))

	s.mu.Lock()
	if old := s.entries[key]; old != nil {
		s.bytes -= old.size
	}
	s.clock++
	s.entries[key] = &entry{size: size, lastUsed: s.clock}
	s.bytes += size
	s.stats.Puts++
	s.evictLocked()
	s.stats.Entries = len(s.entries)
	s.stats.Bytes = s.bytes
	s.mu.Unlock()
	return nil
}

// writeFailed counts a failed entry write in Stats.Errors and returns err.
func (s *Store) writeFailed(err error) error {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
	return fmt.Errorf("cache: %w", err)
}

// evictLocked removes least-recently used entries until the store fits its
// budget. The most recently written entry is never evicted, so a Put
// always leaves its own entry readable even under a budget smaller than
// one entry. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.opts.MaxBytes <= 0 || s.bytes <= s.opts.MaxBytes {
		return
	}
	type victim struct {
		key      string
		lastUsed uint64
		size     int64
	}
	order := make([]victim, 0, len(s.entries))
	for k, e := range s.entries {
		order = append(order, victim{key: k, lastUsed: e.lastUsed, size: e.size})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].lastUsed < order[j].lastUsed })
	for _, v := range order {
		if s.bytes <= s.opts.MaxBytes || len(s.entries) <= 1 {
			return
		}
		if v.lastUsed == s.clock {
			continue // never evict the entry just touched
		}
		os.Remove(s.path(v.key))
		delete(s.entries, v.key)
		s.bytes -= v.size
		s.stats.Evictions++
	}
}

// Do returns the payload for key, computing it at most once across
// concurrent callers: a stored entry is returned directly (hit=true); an
// in-flight computation for the same key is joined (hit=true for the
// joiners — they did not compute); otherwise compute runs, its result is
// stored, and hit=false. compute errors are returned to every waiter and
// nothing is stored. A failed read is a miss and a failed write serves the
// computed bytes uncached (both counted in Stats.Errors), so the only
// other error is a malformed key.
func (s *Store) Do(key string, compute func() ([]byte, error)) (payload []byte, hit bool, err error) {
	_, payload, hit, err = s.DoPrior(key, nil, compute)
	return payload, hit, err
}

// DoPrior is Do for a caller that kept the entry of an earlier hit on key,
// as GetPrior is Get for one: prior is handed to GetPrior, and entry is the
// entry bytes payload was read from — nil when payload was computed, by
// this call or by the in-flight one it joined.
func (s *Store) DoPrior(key string, prior []byte, compute func() ([]byte, error)) (entry, payload []byte, hit bool, err error) {
	if err := validKey(key); err != nil {
		return nil, nil, false, err
	}
	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.stats.Shared++
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, nil, false, f.err
		}
		return f.entry, f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	// Leader: check disk, compute on miss.
	finish := func(entry, val []byte, err error) {
		f.entry, f.val, f.err = entry, val, err
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
	}
	if entry, val, ok, _ := s.GetPrior(key, prior); ok { // its one error, a malformed key, is ruled out above
		finish(entry, val, nil)
		return entry, val, true, nil
	}
	val, err := compute()
	if err != nil {
		finish(nil, nil, err)
		return nil, nil, false, err
	}
	// A failed write is counted in Stats.Errors; the bytes are served
	// uncached.
	_ = s.Put(key, val)
	finish(nil, val, nil)
	return nil, val, false, nil
}

// Stats returns a snapshot of the store's counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	st.MaxBytes = s.opts.MaxBytes
	return st
}
