// Incast: fire a synchronized burst of query flows at one receiver and
// watch how the three AQMs handle it — the paper's Figure 10/11 scenario.
// ECN♯'s instantaneous marking tames the burst (no drops); CoDel reacts a
// full interval late and overflows the buffer.
//
// Run with:
//
//	go run ./examples/incast
//
// With -trace, the ECN♯ run is repeated with an event tracer attached: the
// full event stream goes to the given JSONL file and the ECN♯ marks on the
// bottleneck port are replayed on stdout, showing Algorithm 1's
// conservative cadence — the gap between consecutive persistent marks
// shrinking as pst_interval/sqrt(count) while the standing queue persists:
//
//	go run ./examples/incast -trace incast.jsonl
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

const (
	senders  = 16
	receiver = 16
	fanout   = 120

	rtt90       = 220 * sim.Microsecond
	pstTarget   = 10 * sim.Microsecond
	pstInterval = 240 * sim.Microsecond
)

// run executes one incast under the given AQM; when tr is non-nil it is
// attached to the whole network before any flow starts. It returns the
// network so callers can locate the bottleneck port.
func run(name string, newAQM func(int) aqm.AQM, tr trace.Tracer) *topology.Net {
	net := topology.NewStar(senders+1, topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   sim.Microsecond,
			BufferBytes: 600 * 1500,
		},
		NewAQM: newAQM,
	})
	eng := net.Engines[0]
	if tr != nil {
		net.AttachTracer(tr)
	}

	cfg := transport.DefaultConfig()
	cfg.InitCwndSegments = 2

	// Four long-lived flows build whatever standing queue the AQM allows.
	for i := 0; i < 4; i++ {
		transport.StartFlow(eng, cfg, net.Host(i), net.Host(receiver),
			uint64(i+1), 1<<40, 0, nil)
	}

	// The query burst at t=50ms.
	rng := rand.New(rand.NewSource(7))
	collector := metrics.NewFCTCollector()
	specs := workload.QueryFlows(rng, workload.QueryConfig{
		Senders:  repeat(senders, fanout),
		Receiver: receiver,
		At:       50 * sim.Millisecond,
		MinBytes: 3_000,
		MaxBytes: 60_000,
	})
	for i, spec := range specs {
		spec := spec
		transport.StartFlow(eng, cfg, net.Host(spec.Src), net.Host(receiver),
			uint64(100+i), spec.Size, spec.Start,
			func(f *transport.Flow) { collector.Record(f.Size, f.FCT, true) })
	}

	net.Shard.RunUntil(150 * sim.Millisecond)

	eg := net.EgressTo(receiver).Egress
	s := collector.Stats()
	fmt.Printf("%-10s drops %4d | query FCT avg %7.1f us p99 %7.1f us (%d/%d done)\n",
		name, eg.Drops, s.QueryAvg, s.QueryP99, s.QueryCount, fanout)
	return net
}

func repeat(hosts, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % hosts
	}
	return out
}

func newECNSharp(int) aqm.AQM {
	return aqm.MustNewECNSharp(core.Params{
		InsTarget:   rtt90,
		PstTarget:   pstTarget,
		PstInterval: pstInterval,
	})
}

// tracedRun repeats the ECN♯ incast with a tracer attached: the full event
// stream goes to path as JSONL, while a ring recorder keeps the mark events
// for the cadence replay below.
func tracedRun(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(1)
	}
	jsonl := trace.NewJSONLWriter(f)
	marks := trace.NewRingRecorder(1 << 16).SetMask(trace.MaskOf(trace.ECNMark))

	fmt.Println()
	net := run("ECN# (traced)", newECNSharp, trace.NewTee(jsonl, marks))
	if err := jsonl.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("\nfull event trace written to %s\n", path)

	reportCadence(marks.Events(), net.PortTo(receiver))
}

// reportCadence replays the bottleneck port's persistent marks, printing
// the interval to the previous one next to Algorithm 1's scheduled
// pst_interval/sqrt(count) — the shrinking cadence of §3.3.
func reportCadence(events []trace.Event, port int) {
	var inst, pst int
	var pstAts []int64
	for _, e := range events {
		if e.Port != port {
			continue
		}
		switch e.Mark {
		case trace.MarkInstantaneous:
			inst++
		case trace.MarkPersistent:
			pst++
			pstAts = append(pstAts, e.At)
		}
	}
	fmt.Printf("bottleneck port %d: %d instantaneous marks, %d persistent marks\n",
		port, inst, pst)
	if len(pstAts) < 2 {
		return
	}

	fmt.Println("\npersistent-marking cadence (Algorithm 1):")
	fmt.Println("   k        t (ms)   gap to prev   pst_interval/sqrt(k)")
	show := len(pstAts)
	if show > 12 {
		show = 12
	}
	for k := 1; k < show; k++ {
		gap := sim.Time(pstAts[k] - pstAts[k-1])
		sched := sim.Time(float64(pstInterval) / math.Sqrt(float64(k+1)))
		fmt.Printf("  %2d  %12.3f  %12v  %12v\n",
			k+1, sim.Time(pstAts[k]).Seconds()*1e3, gap, sched)
	}
	if show < len(pstAts) {
		fmt.Printf("  ... %d more persistent marks\n", len(pstAts)-show)
	}
	fmt.Println("\nthe gap tracks the shrinking schedule while the standing queue persists")
}

func main() {
	tracePath := flag.String("trace", "", "repeat the ECN# run traced, writing a JSONL event trace to this file")
	flag.Parse()

	fmt.Printf("incast: %d concurrent query flows into one 10G port, 600-packet buffer\n\n", fanout)
	run("RED-Tail", func(int) aqm.AQM {
		return aqm.NewREDInstantBytes(core.ThresholdBytes(1, topology.TenGbps, rtt90))
	}, nil)
	run("CoDel", func(int) aqm.AQM {
		return aqm.NewCoDel(10*sim.Microsecond, 240*sim.Microsecond)
	}, nil)
	run("ECN#", newECNSharp, nil)
	fmt.Println("\nCoDel should drop packets; ECN# and RED-Tail should not.")

	if *tracePath != "" {
		tracedRun(*tracePath)
	}
}
