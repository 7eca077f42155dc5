package sim_test

import (
	"testing"

	"ecnsharp/internal/bench"
)

// The bodies live in internal/bench so `go test -bench` and the
// root package's TestAllocBaseline gate measure identical code.

// BenchmarkScheduleAndRun measures raw event throughput: the entire
// simulator's speed limit.
func BenchmarkScheduleAndRun(b *testing.B) { bench.ScheduleAndRun(b) }

// BenchmarkNestedAfter measures the common pattern of events scheduling
// their successors (links, timers).
func BenchmarkNestedAfter(b *testing.B) { bench.NestedAfter(b) }

// BenchmarkTimerChurn measures cancel-and-re-arm of timers that never
// expire, the retransmission-timer pattern.
func BenchmarkTimerChurn(b *testing.B) { bench.TimerChurn(b) }
