package main

import (
	_ "embed"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
)

// envInfo is recorded in every output, so numbers are never read without
// the machine and toolchain they came from.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

var environment = sync.OnceValue(func() envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
})

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimLeft(name, " \t:"))
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, or "unknown" where the benchmark runs on
// an exported tree that is not a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// baselineFile is benchmark/baseline.json: the seed-1 digests of each
// workload's simulated outputs and the numbers measured at the commit that
// defined the benchmark.
type baselineFile struct {
	SimDigest map[string]string `json:"sim_digest"`
}

//go:embed baseline.json
var baselineJSON []byte

var baseline = sync.OnceValue(func() baselineFile {
	var b baselineFile
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		panic("benchmark: baseline.json does not parse: " + err.Error())
	}
	return b
})
