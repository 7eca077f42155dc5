package experiments

import (
	"fmt"

	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/workload"
)

// fctMetric selects one of the four FCT breakdowns the figures plot.
type fctMetric struct {
	name string
	get  func(metrics.FCTStats) float64
}

var (
	overallAvg = fctMetric{"overall:avg", func(s metrics.FCTStats) float64 { return s.OverallAvg }}
	shortAvg   = fctMetric{"(0,100KB]:avg", func(s metrics.FCTStats) float64 { return s.ShortAvg }}
	shortP99   = fctMetric{"(0,100KB]:p99", func(s metrics.FCTStats) float64 { return s.ShortP99 }}
	largeAvg   = fctMetric{"[10MB,inf):avg", func(s metrics.FCTStats) float64 { return s.LargeAvg }}

	fctMetrics = []fctMetric{overallAvg, shortAvg, shortP99, largeAvg}
)

// fctSweep runs the loads × schemes grid and emits one pivot per FCT
// metric, each normalized to the first scheme (DCTCP-RED-Tail).
func fctSweep(id, title string, schemes []Scheme, loads []float64, sc Scale,
	mkCfg func(s Scheme, load float64) RunConfig) []*Table {
	g := newGrid(axis(loads, percent), axis(schemes, schemeLabel), func(r, c int) RunConfig {
		return mkCfg(schemes[c], loads[r])
	})
	runGrids(sc, g)

	tables := make([]*Table, 0, len(fctMetrics))
	for mi, m := range fctMetrics {
		tables = append(tables, pivot(fmt.Sprintf("%s%c", id, 'a'+mi),
			fmt.Sprintf("%s — %s (normalized to %s)", title, m.name, schemes[0].Label),
			"load(%)", g.rows, g.cols, func(x, s int) string {
				return f3(ratio(m.get(g.at(x, s).Stats), m.get(g.at(x, 0).Stats)))
			}))
	}
	return tables
}

// percent formats a load fraction as the percentage the tables print.
func percent(load float64) string { return f1(load * 100) }

func schemeLabel(s Scheme) string { return s.Label }

// Fig6 reproduces Figure 6: testbed FCT statistics with the web-search
// workload across loads, four schemes, normalized to DCTCP-RED-Tail.
func Fig6(sc Scale) []*Table {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	return fctSweep("fig6", "[Testbed] web search FCT", TestbedSchemes(), sc.Loads, sc,
		func(s Scheme, load float64) RunConfig {
			return starCfg(s, workload.WebSearch, load, rtt, sc)
		})
}

// Fig7 reproduces Figure 7: the same sweep with the data-mining workload.
func Fig7(sc Scale) []*Table {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	heavy := sc
	if heavy.HeavyFlowCount > 0 {
		heavy.FlowCount = heavy.HeavyFlowCount
	}
	return fctSweep("fig7", "[Testbed] data mining FCT", TestbedSchemes(), sc.Loads, sc,
		func(s Scheme, load float64) RunConfig {
			return starCfg(s, workload.DataMining, load, rtt, heavy)
		})
}

// Fig8 reproduces Figure 8: ECN♯ vs DCTCP-RED-Tail under 3×/4×/5× RTT
// variations with the web-search workload. For each variation the schemes
// are re-derived from the wider RTT distribution (§3.4), and the table
// reports NFCT = ECN♯/Tail for overall-average and short-flow p99.
func Fig8(sc Scale) []*Table {
	variations := []float64{3, 4, 5}
	rtts := make([]rttvar.RTTDistribution, len(variations))
	tails, sharps := make([]Scheme, len(variations)), make([]Scheme, len(variations))
	for i, v := range variations {
		rtts[i] = rttvar.NewVariation(TestbedRTTMin, v)
		tails[i], _, sharps[i] = DeriveSchemes(rtts[i], topology.TenGbps)
	}
	// One loads × variations grid per scheme, both run as one batch.
	schemeGrid := func(schemes []Scheme) *grid {
		return newGrid(axis(sc.Loads, percent),
			axis(variations, func(v float64) string { return fmt.Sprintf("NFCT %gx", v) }),
			func(r, c int) RunConfig {
				return starCfg(schemes[c], workload.WebSearch, sc.Loads[r], rtts[c], sc)
			})
	}
	tail, sharp := schemeGrid(tails), schemeGrid(sharps)
	runGrids(sc, tail, sharp)

	nfct := func(id string, m fctMetric) *Table {
		return pivot(id, "[Testbed] web search, larger RTT variations — "+m.name+" NFCT (ECN#/Tail)",
			"load(%)", tail.rows, tail.cols, func(x, s int) string {
				return f3(ratio(m.get(sharp.at(x, s).Stats), m.get(tail.at(x, s).Stats)))
			})
	}
	ta, tb := nfct("fig8a", overallAvg), nfct("fig8b", shortP99)
	ta.AddNote("paper: overall FCT within ~7.6%% of Tail at all variations")
	tb.AddNote("paper: short p99 improves 37%% (3x) -> 71%% (4x) -> 73%% (5x)")
	return []*Table{ta, tb}
}

// LeafSpineRTT is the §5.3 simulation RTT span: 3× from 80 to 240 µs
// (average ≈137 µs, 90th percentile ≈220 µs).
func LeafSpineRTT() rttvar.RTTDistribution {
	return rttvar.NewRTTDistribution(80*sim.Microsecond, 240*sim.Microsecond)
}

// SimECNSharp returns ECN♯'s §5.3/§5.4 simulation parameters:
// ins_target from the 90th-percentile RTT (Equation 2), pst_interval ≈ one
// worst-case RTT (240 µs), pst_target 10 µs — the center of Figure 12b's
// sensitivity sweep and the source of the 8-packet standing queue in
// Figure 10c.
func SimECNSharp() Scheme {
	rtt := LeafSpineRTT()
	return ECNSharpScheme(core.Params{
		InsTarget:   rtt.Percentile(90),
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	})
}

// LeafSpineSchemes derives the §5.3 configurations from the fabric RTT
// distribution: DCTCP-RED-Tail/AVG via Equation 1, CoDel with
// interval 240 µs / target 10 µs (§5.4), and ECN♯ per SimECNSharp.
func LeafSpineSchemes() []Scheme {
	rtt := LeafSpineRTT()
	tail, avg, _ := DeriveSchemes(rtt, topology.TenGbps)
	codel := CoDelScheme(10*sim.Microsecond, 240*sim.Microsecond)
	return []Scheme{tail, avg, codel, SimECNSharp()}
}

// Fig9 reproduces Figure 9: the 128-host leaf-spine simulation with the
// web-search workload across loads, normalized to DCTCP-RED-Tail. Flows
// arrive Poisson between uniform host pairs; ECMP spreads them over 8
// spines.
func Fig9(sc Scale) []*Table {
	rtt := LeafSpineRTT()
	schemes := LeafSpineSchemes()
	tables := fctSweep("fig9", "[Simulation] 128-host leaf-spine, web search FCT",
		schemes, sc.Loads, sc,
		func(s Scheme, load float64) RunConfig {
			cfg := shapeCfg(TopoLeafSpine, workload.WebSearch, load, sc.LeafSpineFlowCount)
			cfg.Scheme = s
			cfg.RTT = rtt
			return cfg
		})
	// The paper's Figure 9 shows (a) overall avg and (b) short avg.
	return tables[:2]
}
