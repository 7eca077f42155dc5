package experiments

import "fmt"

// BufferModels contrasts buffer architectures on the Figure-10 incast
// scenario (extension): the static 600-packet-per-port bound used by the
// main experiments versus a switch-wide shared pool with dynamic
// thresholds (how real ASICs, including Tofino, buffer). The claim under
// test: ECN♯'s burst tolerance does not depend on generous buffering,
// while CoDel's drop count is a function of how much buffer the
// architecture happens to concede to the congested port.
func BufferModels(sc Scale) *Table {
	t := &Table{
		ID:    "buffer",
		Title: "buffer architectures on the Fig-10 incast (static per-port vs shared pool + DT)",
		Columns: []string{"scheme", "buffering", "standing queue(pkts)",
			"burst peak(pkts)", "drops", "query p99(us)"},
	}

	type arch struct {
		name   string
		static int64
		shared int64
		alpha  float64
	}
	archs := []arch{
		{"static 600pkt/port", 600 * 1500, 0, 0},
		{"shared 1365pkt alpha=1", 0, 2_048_000, 1},
		{"shared 1365pkt alpha=8", 0, 2_048_000, 8},
	}

	// Batch the (scheme, architecture) grid through the harness; the
	// microscopic trace is a single-seed view.
	type cell struct {
		scheme Scheme
		arch   arch
	}
	var cells []cell
	var cfgs []RunConfig
	for _, s := range MicroscopicSchemes() {
		if s.Label == "DCTCP-RED-Tail" {
			continue // the burst-tolerance contrast is CoDel vs ECN♯
		}
		for _, a := range archs {
			cfg := incastCfg(s, 100, sc.FlowCount, true)
			cfg.BufferBytes = a.static
			cfg.SharedBufferBytes = a.shared
			cfg.DTAlpha = a.alpha
			cells = append(cells, cell{s, a})
			cfgs = append(cfgs, cfg)
		}
	}
	one := sc
	one.Seeds = sc.Seeds[:1]
	results := RunAll(one, cfgs)
	for i, c := range cells {
		r := results[i]
		standing, _ := queueAroundBurst(r.QueueSamples)
		t.AddRow(c.scheme.Label, c.arch.name, f1(standing),
			fmt.Sprintf("%d", r.MaxQueuePkts),
			fmt.Sprintf("%d", r.Drops), f1(r.Stats.QueryP99))
	}
	t.AddNote("ECN# should be drop-free under every architecture; CoDel's drops shrink only as the buffer grows")
	return t
}
