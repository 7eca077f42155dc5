package experiments

// BufferModels contrasts buffer architectures on the Figure-10 incast
// scenario (extension): the static 600-packet-per-port bound used by the
// main experiments versus a switch-wide shared pool with dynamic
// thresholds (how real ASICs, including Tofino, buffer). The claim under
// test: ECN♯'s burst tolerance does not depend on generous buffering,
// while CoDel's drop count is a function of how much buffer the
// architecture happens to concede to the congested port.
func BufferModels(sc Scale) *Table {
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
	schemes := MicroscopicSchemes()[1:] // the burst-tolerance contrast is CoDel vs ECN♯

	// The microscopic trace is a single-seed view.
	g := newGrid(axis(schemes, schemeLabel), axis(archs, func(a arch) string { return a.name }),
		func(r, c int) RunConfig {
			cfg := incastCfg(schemes[r], 100, sc.FlowCount, true)
			cfg.BufferBytes = archs[c].static
			cfg.SharedBufferBytes = archs[c].shared
			cfg.DTAlpha = archs[c].alpha
			return cfg
		})
	runGrids(sc.firstSeed(), g)
	t := records("buffer", "buffer architectures on the Fig-10 incast (static per-port vs shared pool + DT)",
		[]string{"scheme", "buffering"}, []column{colStanding, colBurstPeak, colDrops, colQueryP99}, g)
	t.AddNote("ECN# should be drop-free under every architecture; CoDel's drops shrink only as the buffer grows")
	return t
}
