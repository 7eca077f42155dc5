package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/fault"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

// TopoKind selects the network shape of a run.
type TopoKind int

// Topologies used by the evaluation.
const (
	TopoStar TopoKind = iota
	TopoLeafSpine
)

// Defaults shared by the experiments (testbed parameters from §5.2).
const (
	// DefaultBufferBytes is the per-port switch buffer: ~600 full-size
	// packets, enough that only genuine incast overload tail-drops (the
	// Figure 10 traces peak just below it under DCTCP-RED-Tail).
	DefaultBufferBytes = 600 * 1500
	// DefaultPropDelay keeps the intrinsic path RTT a few µs, dwarfed by
	// the injected processing delays, as in the real testbed.
	DefaultPropDelay = 1 * sim.Microsecond
)

// RunConfig describes one simulation run.
type RunConfig struct {
	Seed int64

	Topo         TopoKind
	Hosts        int // star size (senders+receiver)
	Spines       int // leaf-spine dims
	Leaves       int
	HostsPerLeaf int

	// Shards is topology.Options.Shards: the number of worker goroutines
	// the topology's domains run on (0 means one). Every simulated byte —
	// traces, FCT records, counters — is independent of it.
	Shards int

	PropDelay   sim.Time
	BufferBytes int64
	// SharedBufferBytes/DTAlpha switch to per-switch shared-pool buffering
	// with dynamic thresholds (see queue.SharedPool); BufferBytes is then
	// ignored.
	SharedBufferBytes int64
	DTAlpha           float64
	// Weights is topology.Options.Weights: nil for one FIFO queue per
	// switch port, else one DWRR queue per weight. A flow joins the queue
	// its FlowSpec.Class names.
	Weights []int

	Scheme    Scheme
	Transport transport.Config

	// Tuned, when non-nil, overrides Scheme's parameters per switch
	// location (see TunedParams).
	Tuned *TunedParams

	// RTT, when not zero, injects per-flow base RTTs via netem-style
	// sender delay.
	RTT rttvar.RTTDistribution

	// Flows and Traffic are the run's flows: Flows as given, then the
	// flows Traffic generates from the run's seed, so multi-seed averaging
	// also averages over arrival patterns (see FlowGen).
	Flows   []workload.FlowSpec
	Traffic Traffic

	// SampleInterval > 0 opens one measurement window, [SampleStart,
	// SampleEnd] sampled every SampleInterval: the last-hop egress to the
	// last host, a star's receiver (RunResult.QueueSamples), and the goodput
	// of every workload.LongFlow (RunResult.Goodput).
	SampleStart    sim.Time
	SampleEnd      sim.Time
	SampleInterval sim.Time

	// Faults, when non-nil, is installed on the network before any flow
	// starts: its transitions pre-schedule on the domain engines, so churn
	// runs stay byte-deterministic at any worker count (see fault.Install).
	Faults *fault.Schedule

	// Deadline stops the run early (0 = run until all flows complete).
	Deadline sim.Time
}

// RunResult is the outcome of one run.
type RunResult struct {
	Stats     metrics.FCTStats
	Collector *metrics.FCTCollector

	Drops       int64
	Marks       int64
	Timeouts    int64
	Retransmits int64
	Completed   int
	// Failed counts flows that gave up by RTO exhaustion — only possible
	// under fault injection with Transport.MaxConsecTimeouts set.
	Failed   int
	Injected int

	QueueSamples []metrics.QueueSample
	AvgQueuePkts float64
	MaxQueuePkts int
	// Goodput holds one series per long flow, in flow order, over the
	// sampling window (nil without one). MergeRuns does not pool it: a
	// pooled result's series stay in its PerSeed entries.
	Goodput [][]metrics.GoodputPoint

	// Net is the network the run was simulated on — Run and RunContext set
	// it; results that went through RunSeeds or a grid carry none (see
	// runAll).
	Net *topology.Net
	// Report counts the run's windows, per-domain events and handoffs
	// (summed over seeds by MergeRuns). It is deterministic but describes
	// the execution, not the simulated network, so no result encoding or
	// cache key includes it.
	Report sim.RunReport
	// Pools counts each domain's packet pool (summed over seeds by
	// MergeRuns); like Report it describes the execution and stays out of
	// every encoding.
	Pools []PoolCount

	// PerSeed holds the unmerged per-seed results when this result was
	// pooled across seeds by MergeRuns (nil for a direct single run), so
	// every seed's collector and queue samples stay reachable.
	PerSeed []RunResult
}

func (c *RunConfig) defaults() {
	if c.PropDelay == 0 {
		c.PropDelay = DefaultPropDelay
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = DefaultBufferBytes
	}
	if c.Transport.MSS == 0 {
		c.Transport = transport.DefaultConfig()
	}
}

// shapeCfg builds the skeleton of a run on one of the two named shapes every
// load sweep uses — the 8-host testbed star (§5.2: senders 0–6, receiver 7)
// or the 128-host 8×8×16 leaf-spine (§5.3: uniform random pairs) — with
// Poisson arrivals of the named workload's flow sizes at the given load.
// Callers set the seed, scheme and RTT model on the result.
func shapeCfg(topo TopoKind, wl string, load float64, flows int) RunConfig {
	cfg := RunConfig{Topo: TopoStar, Hosts: TestbedHosts}
	if topo == TopoLeafSpine {
		cfg = RunConfig{Topo: TopoLeafSpine, Spines: 8, Leaves: 8, HostsPerLeaf: 16}
	}
	cfg.Traffic.Poisson = Poisson{Workload: wl, Load: load, Count: flows}
	return cfg
}

// hostRange returns the host indices 0..n-1.
func hostRange(n int) []int {
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	return hosts
}

// pathRTT estimates the intrinsic base RTT of the topology without any
// injected processing delay: propagation both ways over the hop count plus
// one MTU serialization per forward hop and one ACK serialization back.
func pathRTT(c *RunConfig) sim.Time {
	hops := 2 // host->switch->host
	if c.Topo == TopoLeafSpine {
		hops = 4 // host->leaf->spine->leaf->host
	}
	txData := sim.Time(float64(packet.MTU) * 8 / topology.TenGbps * float64(sim.Second))
	txAck := sim.Time(float64(packet.HeaderSize) * 8 / topology.TenGbps * float64(sim.Second))
	return sim.Time(2*hops)*c.PropDelay + sim.Time(hops)*(txData+txAck)
}

// newNet builds the topology cfg (defaults applied) describes. Its switch
// queues mark as cfg.Scheme and cfg.Tuned say, the randomized markers
// drawing from rng; a nil rng builds a scratch network without AQMs.
func (cfg *RunConfig) newNet(rng *rand.Rand) *topology.Net {
	opts := topology.Options{
		Link: topology.LinkParams{
			RateBps:     topology.TenGbps,
			PropDelay:   cfg.PropDelay,
			BufferBytes: cfg.BufferBytes,
		},
		SharedBufferBytes: cfg.SharedBufferBytes,
		DTAlpha:           cfg.DTAlpha,
		Weights:           cfg.Weights,
		Shards:            cfg.Shards,
	}
	if cfg.SharedBufferBytes > 0 {
		opts.Link.BufferBytes = 0
	}
	if rng != nil {
		opts.NewAQMAt = cfg.aqmAt(rng)
	}
	switch cfg.Topo {
	case TopoStar:
		if cfg.Hosts < 2 {
			panic("experiments: star needs Hosts >= 2")
		}
		return topology.NewStar(cfg.Hosts, opts)
	case TopoLeafSpine:
		return topology.NewLeafSpine(cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf, opts)
	default:
		panic(fmt.Sprintf("experiments: unknown topology %d", cfg.Topo))
	}
}

// CheckFaults reports whether cfg.Faults installs on the topology cfg
// describes — every link and switch it names exists, no degrade undercuts
// the sharded lookahead — by installing it on a scratch copy of that
// topology, so a caller can reject a bad schedule before any run starts
// (inside a run the same error is a panic).
func (cfg RunConfig) CheckFaults() error {
	if cfg.Faults == nil {
		return nil
	}
	cfg.defaults()
	_, err := fault.Install(cfg.newNet(nil), cfg.Faults)
	return err
}

// aqmAt compiles cfg.Scheme and cfg.Tuned into the constructor
// topology.Options.NewAQMAt takes: a port matching no tuned scope marks as
// cfg.Scheme does.
func (cfg *RunConfig) aqmAt(rng *rand.Rand) func(topology.PortLoc, int) aqm.AQM {
	base := cfg.Scheme.Factory(rng)
	tp := cfg.Tuned
	if tp == nil {
		return func(_ topology.PortLoc, q int) aqm.AQM { return base(q) }
	}
	schemes, err := tp.Schemes(cfg.Scheme)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	tuned := make([]func(int) aqm.AQM, len(schemes))
	for i, s := range schemes {
		tuned[i] = s.Factory(rng)
	}
	return func(loc topology.PortLoc, q int) aqm.AQM {
		if i := tp.scopeOf(loc); i >= 0 {
			return tuned[i](q)
		}
		return base(q)
	}
}

// Run executes the configured simulation untraced and gathers results. It
// panics when the run fails its conservation audit: with no context to
// cancel, that is the only way RunContext fails.
func Run(cfg RunConfig) RunResult {
	r, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return r
}

// RunContext is Run with cancellation and an event sink: the engine polls
// ctx between event chunks, so a canceled context or expired per-job
// deadline stops the run early, and a non-nil tr is attached to the whole
// network before any flow starts (flushing whatever it writes to is the
// caller's job). On cancellation the returned result is partial and the
// error is ctx's. Every run ends with a conservation audit (Net.Audit and
// the flow count, see auditFlows); an equation that does not balance is a
// simulator bug, returned as an error naming it.
func RunContext(ctx context.Context, cfg RunConfig, tr trace.Tracer) (RunResult, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	net := cfg.newNet(rng)
	if tr != nil {
		net.AttachTracer(tr)
	}

	if cfg.Faults != nil {
		if _, err := fault.Install(net, cfg.Faults); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
	}

	var assigner *rttvar.Assigner
	if cfg.RTT != (rttvar.RTTDistribution{}) {
		assigner = rttvar.NewAssigner(cfg.RTT, pathRTT(&cfg), rng)
	}

	specs := cfg.FlowGen(TrafficRand(cfg.Seed))

	// Completion accounting is kept per domain: a flow's completion
	// callback runs on its source host's domain worker, so each domain
	// records into its own collector and counter and the coordinator-side
	// merge (in fixed domain order) reassembles one deterministic record
	// stream. With a single domain the merge degenerates to the historical
	// single-collector behavior.
	doms := net.Domains()
	collectors := make([]*metrics.FCTCollector, doms)
	for d := range collectors {
		collectors[d] = metrics.NewFCTCollector()
	}
	completedBy := make([]int, doms)
	failedBy := make([]int, doms)

	table := transport.NewFlowTable(len(specs))
	table.OnDone = func(i int) {
		d := net.DomainOfHost(table.Src[i])
		completedBy[d]++
		collectors[d].Record(table.Size[i], table.FCT[i], table.Query[i])
	}
	table.OnFail = func(i int) {
		failedBy[net.DomainOfHost(table.Src[i])]++
	}
	var meters []*metrics.GoodputMeter
	for i, spec := range specs {
		id := uint64(i + 1)
		src := net.Host(spec.Src)
		dst := net.Host(spec.Dst)
		if assigner != nil {
			_, extra := assigner.Next()
			src.SetFlowDelay(uint32(id), extra)
		}
		tc := cfg.Transport
		tc.Class = spec.Class
		table.Launch(tc, src, dst, id, spec.Size, spec.Start, spec.Query)
		if cfg.SampleInterval > 0 && spec.Size == workload.LongFlowBytes {
			recv := table.Receivers[i]
			meters = append(meters, metrics.NewGoodputMeter(dst.Engine(),
				func() int64 { return recv.BytesInOrder },
				cfg.SampleStart, cfg.SampleEnd, cfg.SampleInterval))
		}
	}

	var sampler *metrics.QueueSampler
	if cfg.SampleInterval > 0 {
		last := len(net.Hosts) - 1
		sampler = metrics.NewQueueSampler(net.EngineOf(last), net.EgressTo(last).Egress,
			cfg.SampleStart, cfg.SampleEnd, cfg.SampleInterval)
	}

	// A window (or, with one domain, a chunk of events) is bounded work,
	// so polling ctx every few keeps per-job timeouts responsive without
	// touching the workers.
	limit := cfg.Deadline
	if limit <= 0 {
		limit = sim.MaxTime
	}
	runErr := net.Shard.RunPoll(limit, 4, ctx.Err)
	table.CloseAll()
	audit := net.Audit()
	if audit == nil {
		audit = auditFlows(net, table, completedBy, failedBy, runErr == nil && cfg.Deadline <= 0)
	}
	if audit != nil {
		runErr = errors.Join(runErr, audit)
	}

	collector := collectors[0]
	if doms > 1 {
		collector = metrics.NewFCTCollector()
		for _, c := range collectors {
			collector.Merge(c)
		}
	}
	completed, failed := 0, 0
	for d := range completedBy {
		completed += completedBy[d]
		failed += failedBy[d]
	}

	res := RunResult{
		Stats:     collector.Stats(),
		Collector: collector,
		Drops:     net.TotalDrops(),
		Marks:     net.TotalMarks(),
		Completed: completed,
		Failed:    failed,
		Injected:  len(specs),
		Net:       net,
		Report:    net.Shard.Report(),
		Pools:     poolCounts(net),
	}
	for _, s := range table.Senders {
		res.Timeouts += s.Stats.Timeouts
		res.Retransmits += s.Stats.Retransmits
	}
	if sampler != nil {
		res.QueueSamples = sampler.Samples
		res.AvgQueuePkts = sampler.AvgPackets()
		res.MaxQueuePkts = sampler.MaxPackets()
	}
	for _, m := range meters {
		res.Goodput = append(res.Goodput, m.Series)
	}
	return res, runErr
}

// auditFlows checks, domain by domain and summed, that every flow the
// table launched finished, failed or is still active, counting finished
// and failed flows by their completion callbacks and active ones by their
// senders' state; after a drained run (no deadline, not cancelled) none may
// still be active.
func auditFlows(net *topology.Net, table *transport.FlowTable, completedBy, failedBy []int, drained bool) error {
	active := make([]int, len(completedBy))
	launched := make([]int, len(completedBy))
	for i, s := range table.Senders {
		d := net.DomainOfHost(table.Src[i])
		launched[d]++
		if !s.Finished() && !s.Failed() {
			active[d]++
		}
	}
	check := func(where string, launched, finished, failed, active int) error {
		if launched != finished+failed+active || (drained && active > 0) {
			return fmt.Errorf("conservation audit: %s: flows: launched %d != finished %d + failed %d + active %d (drained run: %t)",
				where, launched, finished, failed, active, drained)
		}
		return nil
	}
	for d := range launched {
		if err := check(fmt.Sprintf("domain %d", d), launched[d], completedBy[d], failedBy[d], active[d]); err != nil {
			return err
		}
	}
	return check("all domains", sumOf(launched), sumOf(completedBy), sumOf(failedBy), sumOf(active))
}

// sumOf returns the sum of xs.
func sumOf(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// PoolCount is one domain's packet pool over a run: the packets it handed
// out and those it allocated because its free list was empty. Both are
// functions of the simulation alone, equal at any worker count.
type PoolCount struct {
	Gets int64 `json:"gets"`
	News int64 `json:"news"`
}

// poolCounts reads the counts of net's packet pools, by domain.
func poolCounts(net *topology.Net) []PoolCount {
	counts := make([]PoolCount, len(net.PacketPools))
	for d, pl := range net.PacketPools {
		if pl != nil {
			counts[d] = PoolCount{Gets: pl.Gets, News: pl.News}
		}
	}
	return counts
}

// MergeRuns pools per-seed results into one, deterministically in input
// (seed) order: counters sum, FCT records pool into a fresh collector so
// percentiles are computed over the combined sample set (a true pooled p99,
// not an average of per-seed p99s), and every seed's queue samples are
// concatenated and retained. The per-seed results remain reachable via
// PerSeed.
func MergeRuns(runs []RunResult) RunResult {
	if len(runs) == 0 {
		panic("experiments: MergeRuns of no runs")
	}
	pool := metrics.NewFCTCollector()
	var merged RunResult
	for _, r := range runs {
		pool.Merge(r.Collector)
		merged.Drops += r.Drops
		merged.Marks += r.Marks
		merged.Timeouts += r.Timeouts
		merged.Retransmits += r.Retransmits
		merged.Completed += r.Completed
		merged.Failed += r.Failed
		merged.Injected += r.Injected
		merged.Report.Add(r.Report)
		merged.Pools = append(merged.Pools, make([]PoolCount, max(0, len(r.Pools)-len(merged.Pools)))...)
		for d, c := range r.Pools {
			merged.Pools[d].Gets += c.Gets
			merged.Pools[d].News += c.News
		}
		merged.QueueSamples = append(merged.QueueSamples, r.QueueSamples...)
		if r.MaxQueuePkts > merged.MaxQueuePkts {
			merged.MaxQueuePkts = r.MaxQueuePkts
		}
	}
	if len(merged.QueueSamples) > 0 {
		var total float64
		for _, s := range merged.QueueSamples {
			total += float64(s.Packets)
		}
		merged.AvgQueuePkts = total / float64(len(merged.QueueSamples))
	}
	merged.Collector = pool
	merged.Stats = pool.Stats()
	merged.PerSeed = runs
	return merged
}

// runAll executes one job per (config, seed) pair on the worker pool sc
// describes (so -parallel, -timeout and -progress apply), each on its own
// engine, the jobs of config i labelled names[i] and their seed, the run of
// seed i traced into sinks[i] (nil sinks: every run untraced). It returns
// one seed-pooled result per config, in config order; the merge order is
// fixed by the submission order, so the output is identical at any
// parallelism. A failed job (per-run timeout, or a panic on a worker
// goroutine) aborts with a panic naming the run.
func runAll(sc Scale, cfgs []RunConfig, names []string, sinks []trace.Tracer) []RunResult {
	if len(sc.Seeds) == 0 {
		panic("experiments: no seeds")
	}
	jobs := make([]harness.Job, 0, len(cfgs)*len(sc.Seeds))
	for ci, c := range cfgs {
		for si, seed := range sc.Seeds {
			run := c
			run.Seed = seed
			var tr trace.Tracer
			if sinks != nil {
				tr = sinks[si]
			}
			jobs = append(jobs, harness.Job{
				Label: fmt.Sprintf("%s seed=%d", names[ci], seed),
				Run: func(ctx context.Context) (any, error) {
					r, err := RunContext(ctx, run, tr)
					// Nothing reads a batch result's network, and holding
					// every run's topology, engines and flow endpoints until
					// the figure is rendered is what a batch's memory would
					// otherwise be.
					r.Net = nil
					return r, err
				},
			})
		}
	}
	res, _ := harness.Execute(context.Background(), jobs, sc.harnessOptions())
	runs := make([]RunResult, len(res))
	for i, r := range res {
		if r.Err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", r.Label, r.Err))
		}
		runs[i] = r.Value.(RunResult)
	}
	n := len(sc.Seeds)
	out := make([]RunResult, len(cfgs))
	for ci := range out {
		out[ci] = MergeRuns(runs[ci*n : (ci+1)*n : (ci+1)*n])
	}
	return out
}

// RunSeeds executes cfg once per configured seed on the worker pool sc
// describes, the run of sc.Seeds[i] traced into sinks[i] (nil sinks: every
// run untraced), and pools the results (see runAll).
func RunSeeds(sc Scale, cfg RunConfig, sinks []trace.Tracer) RunResult {
	return runAll(sc, []RunConfig{cfg}, []string{cfg.Scheme.Label}, sinks)[0]
}
