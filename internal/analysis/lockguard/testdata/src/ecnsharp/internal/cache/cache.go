// Package cache holds the lockguard negative and suppression cases:
// snapshot-under-lock-write-after, Cond.Wait, sends after unlock, RunCells
// after unlock, and an annotated deliberate exception. The only want-free diagnostics here
// would be false positives.
package cache

import (
	"fmt"
	"net/http"
	"sync"

	"ecnsharp/internal/experiments"
)

// Store mimics the result cache's locked index.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond
	m    map[string]int
	jobs chan int
}

// Snapshot takes the value under the lock and writes it after: the idiom
// the analyzer's diagnostics recommend.
func (s *Store) Snapshot(w http.ResponseWriter, key string) {
	s.mu.Lock()
	v := s.m[key]
	s.mu.Unlock()
	fmt.Fprintf(w, "%d\n", v)
}

// WaitForWork blocks on the condition variable, which releases the lock
// while waiting: the sanctioned way to block under a mutex.
func (s *Store) WaitForWork() {
	s.mu.Lock()
	for len(s.m) == 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// PumpOutside sends only after releasing the lock.
func (s *Store) PumpOutside(v int) {
	s.mu.Lock()
	n := s.m["k"]
	s.mu.Unlock()
	s.jobs <- n + v
}

// SweepOutside snapshots the cells under the lock and runs them after
// releasing it, the way the daemon's runSweep does.
func (s *Store) SweepOutside(cells []experiments.Cell) {
	s.mu.Lock()
	n := len(s.m)
	s.mu.Unlock()
	experiments.RunCells(cells[:n])
}

// AsyncNotify spawns a goroutine from the critical section: the goroutine
// itself does not hold the lock, so its send is clean.
func (s *Store) AsyncNotify() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.jobs <- 1
	}()
}

// DebugDump deliberately writes under the lock, with the reason recorded.
func (s *Store) DebugDump(w http.ResponseWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "%d entries\n", len(s.m)) //lint:allow lockguard -- fixture: debug-only endpoint, single trusted client
}
