package experiments

import (
	"slices"
	"strconv"

	"ecnsharp/internal/asciiplot"
	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

// Incast setup (§5.4 microscopic view): 16 senders, 1 receiver, 10 Gbps.
// Background flows follow the data-mining workload; at QueryAt, N query
// flows (uniform 3–60 KB) fire simultaneously.
const (
	incastSenders = 16
	incastHosts   = incastSenders + 1
	// incastQueryAt is when the synchronized burst fires. The paper uses
	// t=4 s into a long run; we reach the same steady state sooner.
	incastQueryAt = 200 * sim.Millisecond
	// incastBackgroundLoad keeps the bottleneck busy so a standing queue
	// can form under tail-threshold marking.
	incastBackgroundLoad = 0.25
)

// SimTransport returns the transport settings of the §5.3/§5.4 ns-3
// simulations: identical to the testbed stack except for the conservative
// 2-segment initial window of the simulator's TCP, which is what lets a
// 100-flow synchronized incast fit a switch buffer at all.
func SimTransport() transport.Config {
	cfg := transport.DefaultConfig()
	cfg.InitCwndSegments = 2
	return cfg
}

// MicroscopicSchemes returns the three schemes Figure 10 traces, with the
// §5.4 parameters: CoDel interval 240 µs / target 10 µs; ECN♯ derived
// from the 80–240 µs RTT distribution.
func MicroscopicSchemes() []Scheme {
	rtt := LeafSpineRTT()
	tail, _, _ := DeriveSchemes(rtt, topology.TenGbps)
	return []Scheme{tail, CoDelScheme(10*sim.Microsecond, 240*sim.Microsecond), SimECNSharp()}
}

// incastCfg builds one incast configuration; the seed is assigned per run.
// Its traffic is data-mining background plus one query burst of fanout
// senders at incastQueryAt, the run bounded by a deadline rather than full
// completion since background flows may extend far past the burst.
//
// The background has two parts, standing in for the steady state the
// paper reaches after 4 s of warm-up: a handful of long-lived flows (the
// established data-mining elephants, which are what builds the standing
// queue the microscopic view is about) and bgFlows Poisson
// data-mining-distributed flows truncated at 10 MB (the untruncated tail
// has 1 GB flows whose arrival is a minutes-scale overload transient that
// the paper's long run averages out but a 500 ms window cannot).
func incastCfg(s Scheme, fanout, bgFlows int, sample bool) RunConfig {
	// Long-lived elephants from the first four senders.
	elephants := make([]workload.FlowSpec, 4)
	for i := range elephants {
		elephants[i] = workload.LongFlow(i, incastSenders, 0)
	}
	// The query burst reuses senders round-robin when fanout exceeds the
	// host count, emulating N concurrent query responders.
	responders := make([]int, fanout)
	for i := range responders {
		responders[i] = i % incastSenders
	}
	cfg := RunConfig{
		Topo:      TopoStar,
		Hosts:     incastHosts,
		Scheme:    s,
		RTT:       LeafSpineRTT(),
		Transport: SimTransport(),
		Flows:     elephants,
		Traffic: Traffic{
			Poisson: Poisson{Workload: workload.DataMining, MaxBytes: 10_000_000,
				Load: incastBackgroundLoad, Count: bgFlows},
			Query: workload.QueryConfig{Senders: responders, Receiver: incastSenders,
				At: incastQueryAt, MinBytes: 3_000, MaxBytes: 60_000},
		},
		// Generous runway for query retransmissions after the burst.
		Deadline: incastQueryAt + 300*sim.Millisecond,
	}
	if sample {
		// Window straddles the burst: the pre-burst half shows the standing
		// queue (the paper's 182-vs-8 comparison), the post-burst half the
		// burst response.
		cfg.SampleStart = incastQueryAt - 5*sim.Millisecond
		cfg.SampleEnd = incastQueryAt + 5*sim.Millisecond
		cfg.SampleInterval = 10 * sim.Microsecond
	}
	return cfg
}

// queueAroundBurst averages the sampled bottleneck occupancy on each side
// of incastQueryAt: the standing queue before the burst and the response
// from it on (0 where a side has no samples).
func queueAroundBurst(samples []metrics.QueueSample) (standing, burst float64) {
	var nStand, nBurst int
	for _, smp := range samples {
		if smp.At < incastQueryAt {
			standing += float64(smp.Packets)
			nStand++
		} else {
			burst += float64(smp.Packets)
			nBurst++
		}
	}
	if nStand > 0 {
		standing /= float64(nStand)
	}
	if nBurst > 0 {
		burst /= float64(nBurst)
	}
	return standing, burst
}

// incastCols are the columns the Figure-10 incast tables (fig10, ablation,
// buffer) pick from.
var (
	colStanding = column{"standing queue(pkts)", func(r CellResult) string {
		standing, _ := queueAroundBurst(r.QueueSamples)
		return f1(standing)
	}}
	colBurstAvg = column{"burst avg(pkts)", func(r CellResult) string {
		_, burst := queueAroundBurst(r.QueueSamples)
		return f1(burst)
	}}
	colBurstPeak = column{"burst peak(pkts)", func(r CellResult) string { return strconv.Itoa(metrics.MaxPackets(r.QueueSamples)) }}
	colDrops     = column{"drops", func(r CellResult) string { return strconv.FormatInt(r.Drops, 10) }}
	colTimeouts  = column{"timeouts", func(r CellResult) string { return strconv.FormatInt(r.Timeouts, 10) }}
	colQueryP99  = column{"query p99(us)", func(r CellResult) string { return f1(r.Stats.QueryP99) }}
)

// Fig10 reproduces Figure 10: a 5 ms microscopic view of the bottleneck
// queue around a 100-flow query burst for DCTCP-RED-Tail, CoDel and ECN♯.
// It reports the average/peak occupancy over the window and drop counts —
// the numbers the paper quotes off the trace (182 vs 8 packets; CoDel
// drops, ECN♯ doesn't).
func Fig10(sc Scale) (*Table, map[string][]metrics.QueueSample) {
	schemes := MicroscopicSchemes()
	g := newGrid(axis(schemes, schemeLabel), oneCol, func(r, _ int) RunConfig {
		return incastCfg(schemes[r], 100, sc.FlowCount, true)
	})
	runGrids(sc.firstSeed(), g) // the microscopic trace is a single-seed view
	t := records("fig10", "[Simulation] queue occupancy around a 100-flow query burst (Fig 10)",
		[]string{"scheme"}, []column{colStanding, colBurstAvg, colBurstPeak, colDrops, colTimeouts}, g)
	traces := make(map[string][]metrics.QueueSample)
	for r, label := range g.rows {
		traces[label] = g.first(r, 0).QueueSamples
	}
	t.AddNote("paper: ECN# keeps ~8 pkts vs Tail's ~182 (95.6%% lower); CoDel drops ~125 pkts, ECN# none")
	t.Raw = renderQueueTraces(traces)
	return t, traces
}

// renderQueueTraces draws the Figure-10 occupancy traces (time relative to
// the burst, in ms) as an ASCII chart.
func renderQueueTraces(traces map[string][]metrics.QueueSample) string {
	var series []asciiplot.Series
	for _, name := range []string{"DCTCP-RED-Tail", "CoDel", "ECN#"} {
		tr, ok := traces[name]
		if !ok {
			continue
		}
		s := asciiplot.Series{Name: name}
		for i, smp := range tr {
			if i%10 != 0 { // thin the 10 µs samples to keep cells readable
				continue
			}
			s.X = append(s.X, (smp.At-incastQueryAt).Seconds()*1000)
			s.Y = append(s.Y, float64(smp.Packets))
		}
		series = append(series, s)
	}
	return asciiplot.Render(series, asciiplot.Options{
		Width:  72,
		Height: 14,
		XLabel: "ms relative to the query burst",
		YLabel: "queue (packets)",
	})
}

// Fig11 reproduces Figure 11: query-flow completion time (average and
// 99th percentile) as the incast fanout grows from 25 to 200 concurrent
// senders, for the three microscopic schemes. Seeds pool per grid point, so
// the reported query p99 is the percentile of all seeds' query flows.
func Fig11(sc Scale) []*Table {
	schemes := MicroscopicSchemes()
	g := newGrid(axis(sc.Fanouts, strconv.Itoa), axis(schemes, schemeLabel), func(r, c int) RunConfig {
		return incastCfg(schemes[c], sc.Fanouts[r], sc.FlowCount, false)
	})
	runGrids(sc, g)

	byFanout := func(id, title string, get func(LoadPool) string) *Table {
		return pivot(id, "[Simulation] "+title, "fanout", g.rows, g.cols,
			func(x, s int) string { return get(g.at(x, s)) })
	}
	avg := byFanout("fig11a", "query flow FCT vs fanout — average (Fig 11a)",
		func(p LoadPool) string { return f1(p.Stats.QueryAvg) })
	p99 := byFanout("fig11b", "query flow FCT vs fanout — 99th percentile (Fig 11b)",
		func(p LoadPool) string { return f1(p.Stats.QueryP99) })
	drops := byFanout("fig11c", "packet drops and timeouts vs fanout (supporting Fig 11)",
		func(p LoadPool) string { return strconv.FormatInt(p.Drops, 10) })
	avg.AddNote("FCT in microseconds; paper plots seconds (1e-3 scale)")
	p99.AddNote("paper: CoDel degrades from ~100 senders; ECN# supports 1.75x more (to ~175)")
	return []*Table{avg, p99, drops}
}

// Fig12 reproduces Figure 12: ECN♯'s sensitivity to pst_interval and
// pst_target on both workloads at 50% load. Values are overall average
// FCT, raw and normalized to one setting per axis (the largest interval;
// the 10 µs default target).
func Fig12(sc Scale) []*Table {
	rtt := LeafSpineRTT()
	base := core.Params{
		InsTarget:   rtt.Percentile(90),
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}
	workloads := []string{workload.WebSearch, workload.DataMining}
	micros := func(t sim.Time) string { return f1(t.Micros()) }
	// sweep is the settings × workloads grid of one parameter axis.
	sweep := func(settings []sim.Time, set func(p *core.Params, v sim.Time)) *grid {
		return newGrid(axis(settings, micros), workloads, func(r, c int) RunConfig {
			scale := sc
			if workloads[c] == workload.DataMining && sc.HeavyFlowCount > 0 {
				scale.FlowCount = sc.HeavyFlowCount
			}
			p := base
			set(&p, settings[r])
			return starCfg(ECNSharpScheme(p), workloads[c], 0.5, rtt, scale)
		})
	}
	intervals := sweep([]sim.Time{100 * sim.Microsecond, 150 * sim.Microsecond,
		200 * sim.Microsecond, 250 * sim.Microsecond},
		func(p *core.Params, v sim.Time) { p.PstInterval = v })
	targets := sweep([]sim.Time{6 * sim.Microsecond, 10 * sim.Microsecond,
		14 * sim.Microsecond, 18 * sim.Microsecond},
		func(p *core.Params, v sim.Time) { p.PstTarget = v })
	// Both sensitivity sweeps go out as one batch.
	runGrids(sc, intervals, targets)

	// sensitivity prints each workload's FCT in microseconds, then each as a
	// ratio to the baseRow setting. The ratio's numerator is the value as
	// printed (one decimal), not the raw float: those are the bytes this
	// table has always had.
	sensitivity := func(id, title, xName string, g *grid, baseRow int) *Table {
		fct := func(x, w int) float64 { return g.at(x, w).Stats.OverallAvg }
		series := append(slices.Clone(workloads), "norm "+workloads[0], "norm "+workloads[1])
		return pivot(id, title, xName, g.rows, series, func(x, s int) string {
			if s < len(workloads) {
				return f1(fct(x, s))
			}
			w := s - len(workloads)
			printed, _ := strconv.ParseFloat(f1(fct(x, w)), 64)
			return f3(ratio(printed, fct(baseRow, w)))
		})
	}
	ta := sensitivity("fig12a", "[Simulation] ECN# sensitivity to pst_interval (Fig 12a) — normalized overall FCT",
		"pst_interval(us)", intervals, len(intervals.rows)-1)
	tb := sensitivity("fig12b", "[Simulation] ECN# sensitivity to pst_target (Fig 12b) — normalized overall FCT",
		"pst_target(us)", targets, 1)
	ta.AddNote("paper: overall FCT varies <1%% (web search) / <0.2%% (data mining) across settings")
	return []*Table{ta, tb}
}
