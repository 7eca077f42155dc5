package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the benchmark's only host-clock read: every wall-time figure the
// driver reports is a difference of two of its results.
func now() time.Time {
	return time.Now() //lint:allow wallclock -- the benchmark measures host time; it never reaches simulation state
}

// afterFunc calls fn on its own goroutine once limit of host time has
// passed: the hard timeout of a run.
func afterFunc(limit time.Duration, fn func()) {
	time.AfterFunc(limit, fn) //lint:allow wallclock -- host-side guard against a hung run, not sim time
}

// stopwatch measures one interval in host wall seconds and in CPU seconds
// (user + system) the whole process consumed during it.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch {
	return stopwatch{wall: now(), cpu: cpuSeconds()}
}

func (s stopwatch) stop() (wall, cpu float64) {
	return now().Sub(s.wall).Seconds(), cpuSeconds() - s.cpu
}

// wallOf returns the host seconds fn took.
func wallOf(fn func()) float64 {
	t0 := now()
	fn()
	return now().Sub(t0).Seconds()
}

// cpuSeconds is the user + system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// liveHeapBytes forces two collections and returns what survived them.
// Callers keep the objects they want counted reachable across the call. The
// second collection frees what sync.Pools still held at the first, which is
// a matter of timing and not of what the program keeps.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
