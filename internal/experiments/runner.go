package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/dist"
	"ecnsharp/internal/fault"
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

	RateBps     float64
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

	// RTT, when non-nil, injects per-flow base RTTs via netem-style
	// sender delay.
	RTT *rttvar.RTTDistribution

	// Flows is the traffic to inject. If FlowGen is set it takes
	// precedence and regenerates the traffic per seed, so multi-seed
	// averaging also averages over arrival patterns.
	Flows   []workload.FlowSpec
	FlowGen func(rng *rand.Rand) []workload.FlowSpec

	// NewTracer, when non-nil, builds the run's event tracer: it is called
	// once per run (so once per seed under RunAll) with the run's context —
	// carrying the harness job id under -parallel — and seed, and the
	// returned tracer is attached to the whole network before any flow
	// starts. Returning nil leaves the run untraced. Flushing or closing
	// whatever the tracer writes to remains the caller's responsibility
	// after the runs complete.
	NewTracer func(ctx context.Context, seed int64) trace.Tracer

	// SampleInterval > 0 opens one measurement window, [SampleStart,
	// SampleEnd] sampled every SampleInterval: the last-hop egress to host
	// SampleQueueOf (RunResult.QueueSamples) and the goodput of every
	// workload.LongFlow (RunResult.Goodput).
	SampleQueueOf  int
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
	// it; results that went through RunAll carry none (see runAll).
	Net *topology.Net

	// PerSeed holds the unmerged per-seed results when this result was
	// pooled across seeds by MergeRuns (nil for a direct single run), so
	// every seed's collector and queue samples stay reachable.
	PerSeed []RunResult
}

func (c *RunConfig) defaults() {
	if c.RateBps == 0 {
		c.RateBps = topology.TenGbps
	}
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
// Poisson arrivals of the given flow sizes at the given load. Callers set
// the seed, scheme and RTT model on the result.
func shapeCfg(topo TopoKind, sizes dist.Sampler, load float64, flows int) RunConfig {
	traffic := workload.PoissonConfig{
		SizeDist:    sizes,
		Load:        load,
		CapacityBps: topology.TenGbps,
		FlowCount:   flows,
	}
	var cfg RunConfig
	switch topo {
	case TopoStar:
		cfg = RunConfig{Topo: TopoStar, Hosts: TestbedHosts}
		traffic.Pairs = workload.StarPairs(hostRange(TestbedHosts-1), TestbedHosts-1)
	case TopoLeafSpine:
		cfg = RunConfig{Topo: TopoLeafSpine, Spines: 8, Leaves: 8, HostsPerLeaf: 16}
		traffic.RefLinks = 128
		traffic.Pairs = workload.RandomPairs(hostRange(128))
	default:
		panic(fmt.Sprintf("experiments: unknown topology %d", topo))
	}
	cfg.FlowGen = func(rng *rand.Rand) []workload.FlowSpec {
		return workload.PoissonFlows(rng, traffic)
	}
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
	txData := sim.Time(float64(packet.MTU) * 8 / c.RateBps * float64(sim.Second))
	txAck := sim.Time(float64(packet.HeaderSize) * 8 / c.RateBps * float64(sim.Second))
	return sim.Time(2*hops)*c.PropDelay + sim.Time(hops)*(txData+txAck)
}

// newNet builds the topology cfg (defaults applied) describes. Its switch
// queues mark as cfg.Scheme and cfg.Tuned say, the randomized markers
// drawing from rng; a nil rng builds a scratch network without AQMs.
func (cfg *RunConfig) newNet(rng *rand.Rand) *topology.Net {
	opts := topology.Options{
		Link: topology.LinkParams{
			RateBps:     cfg.RateBps,
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

// Run executes the configured simulation and gathers results.
func Run(cfg RunConfig) RunResult {
	r, _ := RunContext(context.Background(), cfg)
	return r
}

// RunContext is Run with cancellation: the engine polls ctx between event
// chunks, so a canceled context or expired per-job deadline stops the run
// early. On cancellation the returned result is partial and the error is
// ctx's.
func RunContext(ctx context.Context, cfg RunConfig) (RunResult, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	net := cfg.newNet(rng)

	if cfg.NewTracer != nil {
		if tr := cfg.NewTracer(ctx, cfg.Seed); tr != nil {
			net.AttachTracer(tr)
		}
	}

	if cfg.Faults != nil {
		if _, err := fault.Install(net, cfg.Faults); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
	}

	var assigner *rttvar.Assigner
	if cfg.RTT != nil {
		assigner = rttvar.NewAssigner(*cfg.RTT, pathRTT(&cfg), rng)
	}

	specs := cfg.Flows
	if cfg.FlowGen != nil {
		specs = cfg.FlowGen(rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)))
	}

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
			src.SetFlowDelay(id, extra)
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
		eg := net.EgressTo(cfg.SampleQueueOf).Egress
		sampler = metrics.NewQueueSampler(net.EngineOf(cfg.SampleQueueOf), eg,
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

// RunAll executes one job per (config, seed) pair on a worker pool sized by
// sc.Parallel — each job on its own engine, preserving per-seed determinism
// — and returns one seed-pooled result per config, in config order. The
// merge order is fixed by the submission order, so the output is identical
// at any parallelism. A failed job (per-run timeout, or a panic on a worker
// goroutine) aborts with a panic naming the run.
func RunAll(sc Scale, cfgs []RunConfig) []RunResult { return runAll(sc, cfgs, nil) }

// runAll is RunAll with each config's jobs labelled names[i] instead of its
// scheme label (nil names keep the scheme label).
func runAll(sc Scale, cfgs []RunConfig, names []string) []RunResult {
	if len(sc.Seeds) == 0 {
		panic("experiments: no seeds")
	}
	runs := make([]RunConfig, 0, len(cfgs)*len(sc.Seeds))
	labels := make([]string, 0, cap(runs))
	for ci, c := range cfgs {
		name := c.Scheme.Label
		if names != nil {
			name = names[ci]
		}
		for _, seed := range sc.Seeds {
			c.Seed = seed
			runs = append(runs, c)
			labels = append(labels, fmt.Sprintf("%s seed=%d", name, seed))
		}
	}
	res := runJobs(sc, labels, func(ctx context.Context, i int) (RunResult, error) {
		r, err := RunContext(ctx, runs[i])
		// Nothing reads a batch result's network, and holding every run's
		// topology, engines and flow endpoints until the figure is rendered
		// is what a batch's memory would otherwise be.
		r.Net = nil
		return r, err
	})
	n := len(sc.Seeds)
	out := make([]RunResult, len(cfgs))
	for ci := range out {
		out[ci] = MergeRuns(res[:n:n])
		res = res[n:]
	}
	return out
}

// RunSeeds executes cfg once per configured seed and pools the results.
func RunSeeds(sc Scale, cfg RunConfig) RunResult {
	return RunAll(sc, []RunConfig{cfg})[0]
}
