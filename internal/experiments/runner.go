package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"ecnsharp/internal/aqm"
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

// RunConfig describes one simulation run. It is plain data: its JSON form
// (snake_case keys, zero numbers, strings and slices and nil pointers
// omitted, Shards dropped, times in sim.Time nanoseconds) is what a Cell's
// cache key hashes and a CellResult echoes (see Cell.MarshalJSON).
type RunConfig struct {
	Seed int64 `json:"seed,omitempty"`

	Topo         TopoKind `json:"topo,omitempty"`
	Hosts        int      `json:"hosts,omitempty"`  // star size (senders+receiver)
	Spines       int      `json:"spines,omitempty"` // leaf-spine dims
	Leaves       int      `json:"leaves,omitempty"`
	HostsPerLeaf int      `json:"hosts_per_leaf,omitempty"`

	// Shards is topology.Options.Shards: the number of worker goroutines
	// the topology's domains run on (0 means one). Every simulated byte —
	// traces, FCT records, counters — is independent of it, so it has no
	// JSON form.
	Shards int `json:"-"`

	PropDelay   sim.Time `json:"prop_delay,omitempty"`
	BufferBytes int64    `json:"buffer_bytes,omitempty"`
	// SharedBufferBytes/DTAlpha switch to per-switch shared-pool buffering
	// with dynamic thresholds (see queue.SharedPool); BufferBytes is then
	// ignored.
	SharedBufferBytes int64   `json:"shared_buffer_bytes,omitempty"`
	DTAlpha           float64 `json:"dt_alpha,omitempty"`
	// Weights is topology.Options.Weights: nil for one FIFO queue per
	// switch port, else one DWRR queue per weight. A flow joins the queue
	// its FlowSpec.Class names.
	Weights []int `json:"weights,omitempty"`

	Scheme    Scheme           `json:"scheme"`
	Transport transport.Config `json:"transport"`

	// Tuned, when non-nil, overrides Scheme's parameters per switch
	// location (see TunedParams).
	Tuned *TunedParams `json:"tuned,omitempty"`

	// RTT, when not zero, injects per-flow base RTTs via netem-style
	// sender delay.
	RTT rttvar.RTTDistribution `json:"rtt"`

	// Flows and Traffic are the run's flows: Flows as given, then the
	// flows Traffic generates from the run's seed, so multi-seed averaging
	// also averages over arrival patterns (see FlowGen).
	Flows   []workload.FlowSpec `json:"flows,omitempty"`
	Traffic Traffic             `json:"traffic"`

	// SampleInterval > 0 opens one measurement window, [SampleStart,
	// SampleEnd] sampled every SampleInterval: the last-hop egress to the
	// last host, a star's receiver (RunResult.QueueSamples), and the goodput
	// of every workload.LongFlow (RunResult.Goodput).
	SampleStart    sim.Time `json:"sample_start,omitempty"`
	SampleEnd      sim.Time `json:"sample_end,omitempty"`
	SampleInterval sim.Time `json:"sample_interval,omitempty"`

	// Faults, when non-nil, is installed on the network before any flow
	// starts: its transitions pre-schedule on the domain engines, so churn
	// runs stay byte-deterministic at any worker count (see fault.Install).
	Faults *fault.Schedule `json:"faults,omitempty"`

	// Deadline stops the run early (0 = run until all flows complete).
	Deadline sim.Time `json:"deadline,omitempty"`
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

	// QueueSamples and Goodput are the sampling window's series (nil
	// without one): the last-hop queue, and one series per long flow in
	// flow order.
	QueueSamples []metrics.QueueSample
	Goodput      [][]metrics.GoodputPoint

	// Net is the network the run was simulated on.
	Net *topology.Net
	// Report describes how the run executed, not the simulated network,
	// so no result encoding or cache key includes it.
	Report Report
}

// Report is what a run reports of its execution: the engine's windows,
// per-domain events, handoffs, event-queue refills and marks by kind, and
// each domain's packet pool. Its JSON is ecnsim -report's line.
type Report struct {
	sim.RunReport
	Pools []PoolCount `json:"pools"`
}

// Add sums o into r, domain by domain.
func (r *Report) Add(o Report) {
	r.RunReport.Add(o.RunReport)
	r.Pools = append(r.Pools, make([]PoolCount, max(0, len(o.Pools)-len(r.Pools)))...)
	for d, c := range o.Pools {
		r.Pools[d].Gets += c.Gets
		r.Pools[d].News += c.News
	}
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
		sampler = metrics.NewQueueSampler(net.EngineOf(last), &net.EgressTo(last).Egress,
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
		Report:    Report{net.Report(), poolCounts(net)},
	}
	for _, s := range table.Senders {
		res.Timeouts += s.Stats.Timeouts
		res.Retransmits += s.Stats.Retransmits
	}
	if sampler != nil {
		res.QueueSamples = sampler.Samples
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
// out and those it allocated because its free list was empty. Gets are a
// function of the simulation alone, equal at any worker count; news are not,
// because the domains of one worker group share a free list.
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
