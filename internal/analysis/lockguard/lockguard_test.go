package lockguard_test

import (
	"testing"

	"ecnsharp/internal/analysis/analyzertest"
	"ecnsharp/internal/analysis/lockguard"
)

// TestLockguard checks the true positives: response writes, channel sends
// and receives, Cell.Run and RunCells under a held mutex, plus the
// value-receiver copylock.
func TestLockguard(t *testing.T) {
	analyzertest.Run(t, analyzertest.TestData(t), lockguard.Analyzer, "ecnsharp/internal/service")
}

// TestLockguardCleanAndAllowed is the negative and suppression test: the
// snapshot-then-write idiom, Cond.Wait, post-unlock sends, post-unlock
// RunCells and goroutine bodies stay silent, and the one annotated exception is not stale.
func TestLockguardCleanAndAllowed(t *testing.T) {
	analyzertest.Run(t, analyzertest.TestData(t), lockguard.Analyzer, "ecnsharp/internal/cache")
}
