package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// key derives a well-formed content key for tests the way
// experiments.Cell.Key does — hex SHA-256 over the version and a canonical
// encoding — without importing experiments, which runs its cells through
// this package.
func key(t *testing.T, seed int64, version string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n{\"seed\":%d}", version, seed)))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	k := key(t, 1, "v1")
	payload := []byte(`{"result":42}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
	if _, ok, _ := s.Get(key(t, 2, "v1")); ok {
		t.Fatal("hit on a never-stored key")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestReopenFindsEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key(t, 1, "v1")
	if err := s.Put(k, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(k)
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("after reopen: %q ok=%v err=%v", got, ok, err)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes == 0 {
		t.Errorf("reopened stats %+v", st)
	}
}

// TestCorruptEntryRecomputes is the corruption pathology: flip payload
// bytes, truncate, and garbage the header — each must surface as a miss
// (so Do recomputes), delete the bad file, and never return wrong bytes.
func TestCorruptEntryRecomputes(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"bit flip": func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"garbage header": func(b []byte) []byte {
			return append([]byte("not json\n"), b...)
		},
		"empty file": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, Options{})
			k := key(t, 1, "v1")
			if err := s.Put(k, []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.path(k))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(k), corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.Get(k); ok || err != nil {
				t.Fatalf("corrupt entry: ok=%v err=%v (want miss, nil)", ok, err)
			}
			if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
				t.Error("corrupt entry file not deleted")
			}
			if st := s.Stats(); st.Corruptions != 1 {
				t.Errorf("stats %+v, want 1 corruption", st)
			}
			// Do recomputes and heals the entry.
			ran := false
			got, hit, err := s.Do(k, func() ([]byte, error) {
				ran = true
				return []byte("recomputed"), nil
			})
			if err != nil || hit || !ran || string(got) != "recomputed" {
				t.Fatalf("Do after corruption: %q hit=%v ran=%v err=%v", got, hit, ran, err)
			}
			if got, ok, _ := s.Get(k); !ok || string(got) != "recomputed" {
				t.Fatalf("healed entry: %q ok=%v", got, ok)
			}
		})
	}
}

// TestConcurrentDuplicateSubmissionsComputeOnce is the dedupe pathology:
// many goroutines submit the same key at once; compute must run exactly
// once and everyone gets its bytes.
func TestConcurrentDuplicateSubmissionsComputeOnce(t *testing.T) {
	s := mustOpen(t, Options{})
	k := key(t, 1, "v1")
	var computes atomic.Int64
	gate := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = s.Do(k, func() ([]byte, error) {
				computes.Add(1)
				<-gate // hold the computation open so everyone piles up
				return []byte("computed once"), nil
			})
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times", n)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if string(results[i]) != "computed once" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
	}
	if st := s.Stats(); st.Puts != 1 {
		t.Errorf("stats %+v, want puts=1", st)
	}
}

// TestDoJoinsInflightComputation pins the join path deterministically: a
// second Do for a key whose computation is provably in flight must wait
// for it and share its bytes, never start its own compute.
func TestDoJoinsInflightComputation(t *testing.T) {
	s := mustOpen(t, Options{})
	k := key(t, 1, "v1")
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)
	var leaderVal, joinerVal []byte
	var joinerHit bool
	go func() {
		defer wg.Done()
		leaderVal, _, _ = s.Do(k, func() ([]byte, error) {
			close(started)
			<-gate
			return []byte("shared bytes"), nil
		})
	}()
	<-started // the leader now owns the in-flight slot
	go func() {
		defer wg.Done()
		joinerVal, joinerHit, _ = s.Do(k, func() ([]byte, error) {
			t.Error("joiner's compute ran")
			return nil, nil
		})
	}()
	// The joiner either hasn't entered Do yet or has joined the flight;
	// it cannot take any other path while the leader blocks. Wait for the
	// join to register, then release the leader.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Shared == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never joined the in-flight computation")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	if string(leaderVal) != "shared bytes" || string(joinerVal) != "shared bytes" {
		t.Fatalf("leader %q joiner %q", leaderVal, joinerVal)
	}
	if !joinerHit {
		t.Error("joiner did not report a (shared) hit")
	}
	if st := s.Stats(); st.Shared != 1 || st.Puts != 1 {
		t.Errorf("stats %+v, want shared=1 puts=1", st)
	}
}

// TestEvictionUnderTinyBudget is the eviction pathology: a budget that
// holds ~2 entries must keep the store bounded, evict least-recently used
// first, and never evict the entry just written.
func TestEvictionUnderTinyBudget(t *testing.T) {
	// Each entry is 400 payload bytes plus a ~166-byte header line; the
	// budget holds two entries but not three.
	const budget = 1250
	payload := bytes.Repeat([]byte("x"), 400)
	s := mustOpen(t, Options{MaxBytes: budget})
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = key(t, int64(i+1), "v1")
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > budget {
		t.Errorf("store over budget: %d bytes", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under a tiny budget")
	}
	// The newest entry always survives its own Put.
	if _, ok, _ := s.Get(keys[5]); !ok {
		t.Error("most recent entry was evicted")
	}
	// The oldest entries are gone.
	if _, ok, _ := s.Get(keys[0]); ok {
		t.Error("least recently used entry survived")
	}

	// Recency matters, not insertion order: touch an old survivor, add a
	// new entry, and the untouched one goes first.
	s2 := mustOpen(t, Options{MaxBytes: budget})
	a, b, c := key(t, 10, "v1"), key(t, 11, "v1"), key(t, 12, "v1")
	if err := s2.Put(a, payload); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(b, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(a); !ok {
		t.Fatal("entry a missing before eviction")
	}
	if err := s2.Put(c, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(a); !ok {
		t.Error("recently read entry was evicted")
	}
	if _, ok, _ := s2.Get(b); ok {
		t.Error("least recently used entry survived eviction")
	}
}

// TestVersionBumpInvalidates is the invalidation pathology: bumping the
// schema/code version changes every key, so stale results are never
// served and the next Do recomputes.
func TestVersionBumpInvalidates(t *testing.T) {
	s := mustOpen(t, Options{})
	old := key(t, 1, "v1")
	if err := s.Put(old, []byte("old result")); err != nil {
		t.Fatal(err)
	}
	bumped := key(t, 1, "v2")
	if bumped == old {
		t.Fatal("version bump did not change the key")
	}
	ran := false
	got, hit, err := s.Do(bumped, func() ([]byte, error) {
		ran = true
		return []byte("new result"), nil
	})
	if err != nil || hit || !ran {
		t.Fatalf("Do after bump: hit=%v ran=%v err=%v", hit, ran, err)
	}
	if string(got) != "new result" {
		t.Fatalf("got %q", got)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	s := mustOpen(t, Options{})
	k := key(t, 1, "v1")
	boom := errors.New("compute failed")
	if _, _, err := s.Do(k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	// The failure must not poison the key.
	got, hit, err := s.Do(k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(got) != "ok" {
		t.Fatalf("retry after error: %q hit=%v err=%v", got, hit, err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, Options{})
	for _, k := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put accepted key %q", k)
		}
		if _, _, err := s.Get(k); err == nil {
			t.Errorf("Get accepted key %q", k)
		}
	}
}

func TestStoreStatsJSONShape(t *testing.T) {
	// The stats struct is served verbatim by GET /v1/cache/stats; pin the
	// field names the API documents.
	st := Stats{Hits: 1, Misses: 2, Shared: 3, Puts: 4, Evictions: 5,
		Corruptions: 6, Errors: 10, Entries: 7, Bytes: 8, MaxBytes: 9}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"hits":1,"misses":2,"shared":3,"puts":4,"evictions":5,"corruptions":6,"cache_errors":10,"entries":7,"bytes":8,"max_bytes":9}`
	if string(b) != want {
		t.Fatalf("stats JSON\n got %s\nwant %s", b, want)
	}
}

// TestIOErrorsAreMisses: a read that fails is a miss and the value is
// computed; a write that fails serves the computed bytes uncached. Both are
// counted in Stats.Errors. A regular file where the key's shard directory
// belongs fails the read and the write alike, also as root, whom file
// permissions would not stop.
func TestIOErrorsAreMisses(t *testing.T) {
	s := mustOpen(t, Options{})
	const k = "ab0123"
	if err := os.WriteFile(filepath.Join(s.dir, "ab"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	for round := int64(1); round <= 2; round++ {
		calls := 0
		got, hit, err := s.Do(k, func() ([]byte, error) {
			calls++
			return []byte("computed"), nil
		})
		if err != nil || hit || calls != 1 || string(got) != "computed" {
			t.Fatalf("round %d: Do = %q, hit=%v, err=%v after %d computes; want the computed bytes, uncached",
				round, got, hit, err, calls)
		}
		st := s.Stats()
		if st.Misses != round || st.Errors != 2*round || st.Hits != 0 || st.Puts != 0 || st.Entries != 0 {
			t.Errorf("round %d: stats %+v; want %d misses and %d errors (a read and a write each round), nothing stored",
				round, st, round, 2*round)
		}
	}
	if got, ok, err := s.Get(k); ok || err != nil || got != nil {
		t.Errorf("Get = %q, ok=%v, err=%v; want a miss and no error", got, ok, err)
	}
	if err := s.Put(k, []byte("x")); err == nil {
		t.Error("Put into a blocked shard reported no error")
	}
	if st := s.Stats(); st.Errors != 6 || st.Misses != 3 {
		t.Errorf("stats %+v; want 6 errors and 3 misses", st)
	}
}

// getBoth reads key from two stores holding the same file, from a with
// prior and from b without it, and fails t unless both agree on ok, the
// payload and every counter.
func getBoth(t *testing.T, a, b *Store, key string, prior []byte) {
	t.Helper()
	_, pa, oka, erra := a.GetPrior(key, prior)
	pb, okb, errb := b.Get(key)
	if erra != nil || errb != nil {
		t.Fatalf("errors: with prior %v, without %v", erra, errb)
	}
	if oka != okb || !bytes.Equal(pa, pb) {
		t.Fatalf("with prior: ok=%v %q; without: ok=%v %q", oka, pa, okb, pb)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats with prior %+v, without %+v", sa, sb)
	}
}

// FuzzStoreHitPrior: for a valid entry and a mutation of its file — a byte
// flipped, the tail cut, bytes appended, the header line replaced — Get
// handed the entry's bytes as prior and Get without them return the same
// ok and payload and count the same hits, misses and corruptions.
func FuzzStoreHitPrior(f *testing.F) {
	payload := []byte(`{"cell":{"seed":1},"drops":12}`)
	// The first seed flips one payload byte, the "d" of "drops" (the file is
	// a 109-byte header, a newline and the payload): same length, same
	// header, wrong checksum.
	f.Add(payload, 130, byte(0x20), 0, []byte(nil), "")
	f.Add(payload, 0, byte(0), 0, []byte(nil), "")
	f.Add(payload, 3, byte(0x01), 0, []byte(nil), "")
	f.Add(payload, 0, byte(0), 5, []byte(nil), "")
	f.Add(payload, 0, byte(0), 0, []byte("x"), "")
	f.Add(payload, 0, byte(0), 0, []byte(nil), `{"v":1,"key":"k","sha256":"","len":0}`)
	f.Fuzz(func(t *testing.T, payload []byte, at int, flip byte, cut int, tail []byte, header string) {
		const key = "0123abcd"
		a, b := mustOpen(t, Options{}), mustOpen(t, Options{})
		for _, s := range []*Store{a, b} {
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
		}
		prior, _, ok, err := a.GetPrior(key, nil)
		if !ok || err != nil {
			t.Fatalf("fresh entry: ok=%v err=%v", ok, err)
		}
		b.Get(key)                   // b counts the same hit
		getBoth(t, a, b, key, prior) // the file is prior itself
		file := bytes.Clone(prior)
		if header != "" {
			file = append([]byte(header), file[bytes.IndexByte(file, '\n'):]...)
		}
		if len(file) > 0 && flip != 0 {
			file[uint(at)%uint(len(file))] ^= flip
		}
		if cut > 0 {
			file = file[:len(file)-cut%(len(file)+1)]
		}
		file = append(file, tail...)
		for _, s := range []*Store{a, b} {
			if err := os.WriteFile(s.path(key), file, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		getBoth(t, a, b, key, prior)
		getBoth(t, a, b, key, prior) // a corrupt file is gone now, on both
	})
}
