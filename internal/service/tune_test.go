package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// quickTuneSpec is a deliberately tiny tune: one load, two seeds, 40
// flows, a hill climb with budget 3 over an explicit two-dimensional box.
// It finishes in a few seconds while still exercising the whole
// submit → stream → result lifecycle (TestJobLifecycle).
const quickTuneSpec = `{
  "sweep": {"topo": "star", "scheme": "ecnsharp", "workload": "websearch",
            "loads": [0.5], "flows": 40, "seeds": [1, 2],
            "rtt_min_us": 70, "rtt_variation": 3},
  "searcher": "hillclimb",
  "budget": 3,
  "seed": 11,
  "space": {"dims": [
    {"name": "ins_target_us", "min": 25, "max": 800, "default": 200},
    {"name": "pst_target_us", "min": 5, "max": 340, "default": 85}
  ]}
}`

// TestTuneRejectsBadSpecs pins the spec error paths: invalid JSON, unknown
// fields, inverted bounds and an unknown searcher. (Unknown ids are
// TestJobLifecycle's not_found case.)
func TestTuneRejectsBadSpecs(t *testing.T) {
	base := newTestServer(t, Config{Parallel: 2})
	cases := []struct {
		name string
		spec string
		code int
	}{
		{"invalid json", `{`, http.StatusUnprocessableEntity},
		{"unknown field", `{"sweep":{},"bogus":1}`, http.StatusUnprocessableEntity},
		{"inverted bounds", `{"sweep":{},"space":{"dims":[{"name":"ins_target_us","min":400,"max":100,"default":200}]}}`, http.StatusUnprocessableEntity},
		{"bad searcher", `{"sweep":{},"searcher":"anneal"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, err := http.Post(base+"/v1/tune", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.code, body)
		}
		if !strings.Contains(string(body), errSpecInvalid) {
			t.Errorf("%s: error code missing from %s", tc.name, body)
		}
	}
}
