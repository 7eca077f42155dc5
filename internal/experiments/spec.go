package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/workload"
)

// ResultSchemaVersion tags every serialized CellResult and every cache key
// derived from a Cell. Bump it whenever a change makes previously computed
// results stale — a new result field, a simulator behavior change that
// alters output bytes, a spec semantic change — and old cache entries stop
// matching (they age out under the cache's size budget) instead of being
// served wrong.
const ResultSchemaVersion = "ecnsharp-result-v2"

// Upper bounds on what one spec may ask for, so a request cannot make a
// worker allocate without limit (workload generation sizes its flow slice
// by the flow count up front). MaxFlows is 25× the 4 000 flows of a
// FullScale leaf-spine cell and equals the largest scale tier's flow
// count; MaxSweepCells bounds a sweep's loads × seeds grid.
const (
	MaxFlows      = 100_000
	MaxSweepCells = 1_024
)

// Bounds that keep a cell's times inside sim.Time, whose unit is the
// nanosecond. MaxRTTUS caps the largest base RTT, rtt_min_us ×
// rtt_variation, at one second; MinRTTUS is one nanosecond. MinLoad
// bounds the Poisson schedule: MaxFlows datamining flows (mean 14.1 MB)
// into one 10 Gb/s link at load 0.001 arrive over about 1.1e15 ns, 8 000
// times inside sim.Time's 9.2e18.
const (
	MaxRTTUS = 1e6
	MinRTTUS = 1e-3
	MinLoad  = 1e-3
)

// SweepSpec is the sweep description shared by `ecnsim -spec` and the
// ecnsharpd daemon: one JSON document naming a (scheme, workload, topology)
// and the load × seed grid to sweep. Every field has a default, so `{}` is
// a valid spec (one websearch ECN♯ star run at 50% load, seed 1).
//
// The spec deliberately mirrors ecnsim's flags; docs/API.md documents the
// schema and the cache-key derivation rules built on it.
type SweepSpec struct {
	// Topo is "star" (8-host testbed shape) or "leafspine" (128 hosts).
	Topo string `json:"topo,omitempty"`
	// Scheme is the AQM under test: ecnsharp, red-tail, red-avg, codel
	// or tcn (same names as ecnsim -scheme).
	Scheme string `json:"scheme,omitempty"`
	// Workload names the flow-size distribution: websearch or datamining.
	Workload string `json:"workload,omitempty"`
	// Loads are the offered-load points in (0, 1]; one run grid column
	// per load.
	Loads []float64 `json:"loads,omitempty"`
	// Flows is the number of flows injected per run.
	Flows int `json:"flows,omitempty"`
	// Seeds are the per-config random seeds; one cell per (load, seed).
	Seeds []int64 `json:"seeds,omitempty"`
	// RTTMinUS is the minimum base RTT in microseconds.
	RTTMinUS float64 `json:"rtt_min_us,omitempty"`
	// RTTVariation is the RTTmax/RTTmin factor (>= 1).
	RTTVariation float64 `json:"rtt_variation,omitempty"`
	// Shards is RunConfig.Shards for each run: the worker count (0 means
	// one), a wall-clock knob that changes no result byte and is excluded
	// from cache keys.
	Shards int `json:"shards,omitempty"`
	// Trace, when non-nil, captures a JSONL event trace per cell.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// TraceSpec configures per-cell event tracing inside a SweepSpec.
type TraceSpec struct {
	// Events is the comma-separated event-type list ecnsim's
	// -trace-events accepts ("all", "mark,drop", ...).
	Events string `json:"events,omitempty"`
	// Sample keeps every n-th selected event (default 1 = keep all).
	Sample int `json:"sample,omitempty"`
}

// ParseSweepSpec decodes and normalizes a JSON sweep spec, rejecting
// unknown fields so typos fail loudly instead of silently running the
// default sweep.
func ParseSweepSpec(data []byte) (*SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiments: bad sweep spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("experiments: bad sweep spec: trailing data after JSON document")
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalize fills defaults and validates the spec in place. It is
// idempotent; every other SweepSpec method requires a normalized spec.
func (s *SweepSpec) Normalize() error {
	if s.Topo == "" {
		s.Topo = "star"
	}
	if s.Scheme == "" {
		s.Scheme = "ecnsharp"
	}
	if s.Workload == "" {
		s.Workload = "websearch"
	}
	if len(s.Loads) == 0 {
		s.Loads = []float64{0.5}
	}
	if s.Flows == 0 {
		s.Flows = 400
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.RTTMinUS == 0 {
		s.RTTMinUS = 70
	}
	if s.RTTVariation == 0 {
		s.RTTVariation = 3
	}
	if s.Trace != nil {
		if s.Trace.Events == "" {
			s.Trace.Events = "all"
		}
		if s.Trace.Sample == 0 {
			s.Trace.Sample = 1
		}
	}

	if n := len(s.Loads) * len(s.Seeds); n > MaxSweepCells {
		return fmt.Errorf("experiments: %d loads × %d seeds is %d cells, above the per-sweep cap of %d",
			len(s.Loads), len(s.Seeds), n, MaxSweepCells)
	}
	// One representative cell per load carries every validated field.
	for _, load := range s.Loads {
		if err := s.cell(load, s.Seeds[0]).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks a fully resolved cell: numeric bounds first, then name
// resolution. It is the one set of checks behind every entry point —
// SweepSpec.Normalize applies it per load, and ecnsim applies it to the
// cell it builds from its flags — so a bad value is the same one-line
// error everywhere.
func (c Cell) Validate() error {
	if _, err := topoByName(c.Topo); err != nil {
		return err
	}
	if !(c.Load > 0 && c.Load <= 1) {
		return fmt.Errorf("experiments: load %v outside (0, 1]", c.Load)
	}
	if c.Load < MinLoad {
		return fmt.Errorf("experiments: load %v below the minimum of %v", c.Load, MinLoad)
	}
	if c.Flows < 1 {
		return fmt.Errorf("experiments: flows must be positive (got %d)", c.Flows)
	}
	if c.Flows > MaxFlows {
		return fmt.Errorf("experiments: flows %d above the per-cell cap of %d", c.Flows, MaxFlows)
	}
	if !(c.RTTMinUS > 0) {
		return fmt.Errorf("experiments: rtt_min_us must be positive (got %v)", c.RTTMinUS)
	}
	if c.RTTMinUS < MinRTTUS || c.RTTMinUS > MaxRTTUS {
		return fmt.Errorf("experiments: rtt_min_us %v outside [%v, %v]", c.RTTMinUS, MinRTTUS, MaxRTTUS)
	}
	if !(c.RTTVariation >= 1) {
		return fmt.Errorf("experiments: rtt_variation must be >= 1 (got %v)", c.RTTVariation)
	}
	if c.RTTMinUS*c.RTTVariation > MaxRTTUS {
		return fmt.Errorf("experiments: rtt_variation %v puts the largest RTT, rtt_min_us × rtt_variation, above %v µs",
			c.RTTVariation, MaxRTTUS)
	}
	if c.Shards < 0 {
		return fmt.Errorf("experiments: shards must be >= 0 (got %d)", c.Shards)
	}
	// Name resolution last: the RTT model construction requires the
	// numeric bounds already validated.
	if _, err := SchemeByName(c.Scheme, rttvar.NewVariation(sim.Micros(c.RTTMinUS), c.RTTVariation)); err != nil {
		return err
	}
	if _, err := workload.ByName(c.Workload); err != nil {
		return err
	}
	if c.TraceEvents != "" {
		if _, err := trace.ParseMask(c.TraceEvents); err != nil {
			return fmt.Errorf("experiments: trace spec: %w", err)
		}
		if c.TraceSample < 1 {
			return fmt.Errorf("experiments: trace sample must be >= 1 (got %d)", c.TraceSample)
		}
	}
	return nil
}

// topoByName resolves the two named shapes a Cell can run on.
func topoByName(name string) (TopoKind, error) {
	switch name {
	case "star":
		return TopoStar, nil
	case "leafspine":
		return TopoLeafSpine, nil
	default:
		return 0, fmt.Errorf("experiments: unknown topology %q (want star or leafspine)", name)
	}
}

// SchemeByName resolves scheme names against an RTT distribution. It is
// the single naming authority: ecnsim -scheme and the sweep spec's
// "scheme" both resolve here (via Cell.Validate and Cell.RunConfig):
// ecnsharp, red-tail, red-avg (thresholds derived per §3.4),
// codel and tcn (90th-percentile parameterizations).
func SchemeByName(name string, rtt rttvar.RTTDistribution) (Scheme, error) {
	tail, avg, sharp := DeriveSchemes(rtt, topology.TenGbps)
	switch name {
	case "ecnsharp":
		return sharp, nil
	case "red-tail":
		return tail, nil
	case "red-avg":
		return avg, nil
	case "codel":
		return CoDelScheme(10*sim.Microsecond, rtt.Percentile(90)), nil
	case "tcn":
		return TCNScheme(rtt.Percentile(90)), nil
	default:
		return Scheme{}, fmt.Errorf("experiments: unknown scheme %q (want ecnsharp, red-tail, red-avg, codel or tcn)", name)
	}
}

// Cell is one fully resolved (config, seed) run of a sweep: the unit of
// execution, caching and result serialization. All fields are value types
// with exact JSON encodings, so a cell canonicalizes to deterministic
// bytes and hashes to a stable cache key.
type Cell struct {
	// Topo, Scheme and Workload are the resolved spec names.
	Topo     string `json:"topo"`
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	// Load is this cell's offered load in (0, 1].
	Load float64 `json:"load"`
	// Flows is the number of flows injected.
	Flows int `json:"flows"`
	// Seed is this cell's random seed.
	Seed int64 `json:"seed"`
	// RTTMinUS and RTTVariation are the base-RTT model parameters.
	RTTMinUS     float64 `json:"rtt_min_us"`
	RTTVariation float64 `json:"rtt_variation"`
	// Shards is SweepSpec.Shards. It reaches neither the cache key nor the
	// echoed result (see CanonicalJSON).
	Shards int `json:"shards,omitempty"`
	// TraceEvents/TraceSample mirror TraceSpec; empty TraceEvents means
	// the cell is untraced.
	TraceEvents string `json:"trace_events,omitempty"`
	// TraceSample is the sampling stride when TraceEvents is set.
	TraceSample int `json:"trace_sample,omitempty"`
	// Tuned, when non-nil, overrides the named scheme's derived parameters
	// with an explicit per-scope assignment — the tuner's candidate (see
	// internal/tune). It participates in the canonical encoding and hence
	// the cache key; omitempty keeps untuned cells' keys unchanged.
	Tuned *TunedParams `json:"tuned,omitempty"`
}

// Cells expands the normalized spec into its load × seed grid, loads
// outermost, in spec order: cell li*len(Seeds)+si is (Loads[li], Seeds[si]).
// Pool is the inverse grouping.
func (s *SweepSpec) Cells() []Cell {
	cells := make([]Cell, 0, len(s.Loads)*len(s.Seeds))
	for _, load := range s.Loads {
		for _, seed := range s.Seeds {
			cells = append(cells, s.cell(load, seed))
		}
	}
	return cells
}

// cell resolves one (load, seed) grid point of the spec.
func (s *SweepSpec) cell(load float64, seed int64) Cell {
	c := Cell{
		Topo:         s.Topo,
		Scheme:       s.Scheme,
		Workload:     s.Workload,
		Load:         load,
		Flows:        s.Flows,
		Seed:         seed,
		RTTMinUS:     s.RTTMinUS,
		RTTVariation: s.RTTVariation,
		Shards:       s.Shards,
	}
	if s.Trace != nil {
		c.TraceEvents = s.Trace.Events
		c.TraceSample = s.Trace.Sample
	}
	return c
}

// LoadPool is one load point of a sweep pooled over its seeds, in seed
// order: the pooled record stream and its statistics — true pooled
// percentiles, not averaged per-seed ones, exactly like MergeRuns — and the
// summed counters.
type LoadPool struct {
	// Load is the offered-load point.
	Load float64
	// Stats is the FCT breakdown of Records.
	Stats metrics.FCTStats
	// Records is the pooled completed-flow stream (read-only).
	Records []metrics.FCTRecord
	// Drops, Marks, Timeouts and Retransmits sum the cells' counters.
	Drops, Marks, Timeouts, Retransmits int64
	// Completed, Failed and Injected sum the cells' flow counts.
	Completed, Failed, Injected int
}

// Pool groups the results of the spec's cells — results[i] belonging to
// Cells()[i] — into one LoadPool per load.
func (s *SweepSpec) Pool(results []CellResult) []LoadPool {
	pools := make([]LoadPool, len(s.Loads))
	for li, load := range s.Loads {
		pools[li] = PoolLoad(load, results[li*len(s.Seeds):(li+1)*len(s.Seeds)])
	}
	return pools
}

// PoolLoad pools the results of one load's cells, in seed order. Each
// record is copied once, into the pool's own stream.
func PoolLoad(load float64, group []CellResult) LoadPool {
	p := LoadPool{Load: load}
	n := 0
	for _, r := range group {
		n += len(r.Records)
	}
	p.Records = slices.Grow([]metrics.FCTRecord(nil), n) // nil when no flow completed
	for _, r := range group {
		p.Records = append(p.Records, r.Records...)
		p.Drops += r.Drops
		p.Marks += r.Marks
		p.Timeouts += r.Timeouts
		p.Retransmits += r.Retransmits
		p.Completed += r.Completed
		p.Failed += r.Failed
		p.Injected += r.Injected
	}
	p.Stats = metrics.StatsOf(p.Records)
	return p
}

// canonical returns the cell with the worker count dropped: results are
// byte-identical at any Shards (pinned by TestShardedByteIdenticalToSerial).
func (c Cell) canonical() Cell {
	c.Shards = 0
	return c
}

// CanonicalJSON returns the cell's canonical byte encoding: a single JSON
// object with fields in declaration order and Shards dropped, so the
// worker count does not split the cache. Two cells describe the same
// computation iff their canonical encodings are equal.
func (c Cell) CanonicalJSON() []byte {
	b, err := json.Marshal(c.canonical())
	if err != nil {
		// Cell holds only value types with exact encodings; Marshal can
		// fail only on a non-finite Tuned value, which TunedParams.Validate
		// rejects before any cell is run or keyed.
		panic(fmt.Sprintf("experiments: canonicalizing cell: %v", err))
	}
	return b
}

// Key derives the cell's content-addressed cache key: the hex SHA-256 of
// the schema version and the canonical cell encoding. Everything that can
// change the result bytes is in the hash — resolved config, seed, trace
// selection, schema/code version — and nothing else is.
func (c Cell) Key(version string) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{'\n'})
	h.Write(c.CanonicalJSON())
	return hex.EncodeToString(h.Sum(nil))
}

// RunConfig resolves the cell into a runnable configuration. Every entry
// point — ecnsim's flags, ecnsim -spec, the daemon, the tuner — builds its
// runs here, on the same shapeCfg the paper figures use.
func (c Cell) RunConfig() (RunConfig, error) {
	topo, err := topoByName(c.Topo)
	if err != nil {
		return RunConfig{}, err
	}
	rtt := rttvar.NewVariation(sim.Micros(c.RTTMinUS), c.RTTVariation)
	scheme, err := SchemeByName(c.Scheme, rtt)
	if err != nil {
		return RunConfig{}, err
	}
	if _, err := workload.ByName(c.Workload); err != nil {
		return RunConfig{}, err
	}
	cfg := shapeCfg(topo, c.Workload, c.Load, c.Flows)
	cfg.Seed = c.Seed
	cfg.Scheme = scheme
	cfg.RTT = rtt
	cfg.Shards = c.Shards
	if c.Tuned != nil {
		if _, err := c.Tuned.Schemes(scheme); err != nil {
			return RunConfig{}, err
		}
		cfg.Tuned = c.Tuned
	}
	return cfg, nil
}

// CellResult is the serializable outcome of one cell: the FCT record
// stream, the counters the CLI reports, and (when requested) the cell's
// JSONL event trace. Encode produces deterministic bytes — same cell, same
// code version, same bytes — which is what makes cached responses provably
// identical to recomputation.
type CellResult struct {
	// SchemaVersion records the ResultSchemaVersion that produced this
	// result.
	SchemaVersion string `json:"schema_version"`
	// Cell echoes the resolved cell that was run, in canonical form (the
	// worker count dropped), so the bytes do not depend on who computed it.
	Cell Cell `json:"cell"`
	// Stats is the per-class FCT breakdown of Records.
	Stats metrics.FCTStats `json:"stats"`
	// Records is the full completed-flow record stream, in completion
	// order.
	Records []metrics.FCTRecord `json:"records"`
	// Drops, Marks, Timeouts and Retransmits are the run's counters.
	Drops       int64 `json:"drops"`
	Marks       int64 `json:"marks"`
	Timeouts    int64 `json:"timeouts"`
	Retransmits int64 `json:"retransmits"`
	// Completed, Failed and Injected count flows.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Injected  int `json:"injected"`
	// TraceJSONL is the captured event trace (empty when untraced),
	// byte-identical to what ecnsim -trace would have written.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
}

// Encode serializes the result to its canonical byte form (single-line
// JSON, fields in declaration order).
func (r CellResult) Encode() ([]byte, error) {
	return json.Marshal(r)
}

// DecodeCellResult parses bytes produced by Encode. Encode owns the bytes:
// the record stream, nearly all of a payload, goes through
// metrics.DecodeFCTRecords, which accepts only what json.Marshal writes
// for it, and the ~500 bytes around it through encoding/json with the
// records cut out. A payload that does not have that form is an error; a
// result the store returns passed its checksum and was written by Encode.
func DecodeCellResult(data []byte) (CellResult, error) {
	r, err := decodeCellResult(data)
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: bad cell result: %w", err)
	}
	return r, nil
}

// cellEnvelope is a CellResult whose "records" key decodes into a counter:
// the one value there is DecodeCellResult's placeholder, and a second key
// encoding/json would read as "records" (a duplicate, or another case)
// shows as a count above one.
type cellEnvelope struct {
	CellResult
	Records recordsSlot `json:"records"`
}

// recordsSlot counts the values encoding/json hands it.
type recordsSlot int

func (n *recordsSlot) UnmarshalJSON([]byte) error {
	*n++
	return nil
}

func decodeCellResult(data []byte) (CellResult, error) {
	at := topLevelValue(data, `"records":`)
	if at < 0 {
		return CellResult{}, errors.New(`no top-level "records"`)
	}
	recs, n, err := metrics.DecodeFCTRecords(data[at:])
	if err != nil {
		return CellResult{}, err
	}
	env := make([]byte, 0, len(data)-n+len("null"))
	env = append(append(append(env, data[:at]...), "null"...), data[at+n:]...)
	var e cellEnvelope
	if err := json.Unmarshal(env, &e); err != nil {
		return CellResult{}, err
	}
	if e.Records != 1 {
		return CellResult{}, fmt.Errorf(`%d keys decode as "records"`, e.Records)
	}
	e.CellResult.Records = recs
	return e.CellResult, nil
}

// topLevelValue returns the offset just past the first occurrence of key
// (a quoted name and its colon) at depth one of the JSON text data, or -1.
// It tracks only strings and nesting; json.Unmarshal of the spliced
// envelope checks the rest of the syntax.
func topLevelValue(data []byte, key string) int {
	depth, inString := 0, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			if depth == 1 && bytes.HasPrefix(data[i:], []byte(key)) {
				return i + len(key)
			}
			inString = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		}
	}
	return -1
}

// Collector rebuilds an FCT collector over the result's records, so cached
// cells pool into multi-seed statistics exactly like fresh runs.
func (r CellResult) Collector() *metrics.FCTCollector {
	return metrics.CollectorFromRecords(r.Records)
}

// Run executes the cell and assembles its serializable result. The context
// carries cancellation and per-job deadlines as in RunContext; a canceled
// run returns the error, never a partial result.
func (c Cell) Run(ctx context.Context) (CellResult, error) {
	cfg, err := c.RunConfig()
	if err != nil {
		return CellResult{}, err
	}
	// A traced cell's events are encoded into an in-memory buffer, so a
	// store can keep and replay them byte-identical to a streamed file.
	var (
		buf bytes.Buffer
		w   *trace.JSONLWriter
		tr  trace.Tracer
	)
	if c.TraceEvents != "" {
		mask, err := trace.ParseMask(c.TraceEvents)
		if err != nil {
			return CellResult{}, err
		}
		w = trace.NewJSONLWriter(&buf)
		tr = trace.NewFilter(w, mask, c.TraceSample)
	}
	res, err := RunContext(ctx, cfg, tr)
	if err != nil {
		return CellResult{}, err
	}
	out := CellResult{
		SchemaVersion: ResultSchemaVersion,
		Cell:          c.canonical(),
		Stats:         res.Stats,
		Records:       append([]metrics.FCTRecord(nil), res.Collector.Records()...),
		Drops:         res.Drops,
		Marks:         res.Marks,
		Timeouts:      res.Timeouts,
		Retransmits:   res.Retransmits,
		Completed:     res.Completed,
		Failed:        res.Failed,
		Injected:      res.Injected,
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return CellResult{}, err
		}
		out.TraceJSONL = buf.String()
	}
	return out, nil
}

// CellTable is a table of results decoded before, which RunCells consults
// instead of verifying and decoding a stored entry again. RunCells hands it
// only entries the store read from disk, so a computed cell never enters it.
type CellTable interface {
	// Prior returns the entry bytes held for key (cache.Store.GetPrior's
	// entry, which the store may serve without verifying them again), or
	// nil.
	Prior(key string) []byte
	// Decode returns what DecodeCellResult(payload) returns for the cell
	// stored under key, payload being the tail of entry, and the id of the
	// table entry holding that result (0 when none does). The result's
	// slices and strings may be shared with the table and with other
	// callers: they are read-only.
	Decode(key string, entry, payload []byte) (CellResult, uint64, error)
}

// CellOutcome is what RunCells reports for one cell.
type CellOutcome struct {
	// Payload is the cell's canonical result bytes — CellResult.Encode's
	// output, read back from the store on a hit.
	Payload []byte
	// Cached reports that the store served Payload without computing it.
	Cached bool
	// Result is Payload decoded.
	Result CellResult
	// Entry is the id of the CellTable entry Result came from; 0 when
	// there was no table, the cell was computed, or the table holds none.
	Entry uint64
	// Err, when non-nil, is why the cell has no result (a failed or
	// timed-out run, a store error, cancellation before it started),
	// prefixed with the cell's job label.
	Err error
}

// RunCells is the one executor behind ecnsim -spec, the daemon and the
// tuner: it fans the cells out over the harness pool, each through
// store.DoPrior(key) around Run and Encode, decodes the payload, and returns
// one outcome per cell in submission order. keys, when non-nil, are the
// cells' cache keys (Cell.Key(ResultSchemaVersion) each) as the caller
// already derived them; nil derives them here. A nil store computes every
// cell directly; the bytes are the same either way. A non-nil table
// supplies each cell's prior entry bytes and decodes every entry the store
// read. Per-cell failures are reported in the outcome, never hide the other
// cells, and the returned error is non-nil only when ctx was canceled.
// opts.OnDone observes each completion as it happens; its Progress.Value is
// the finished cell's *CellOutcome (nil when Progress.Err is set).
func RunCells(ctx context.Context, cells []Cell, keys []string, store *cache.Store, table CellTable, opts harness.Options) ([]CellOutcome, error) {
	jobs := make([]harness.Job, len(cells))
	for i, cell := range cells {
		jobs[i] = harness.Job{
			Label: fmt.Sprintf("%s load=%.2f seed=%d", cell.Scheme, cell.Load, cell.Seed),
			Run: func(ctx context.Context) (any, error) {
				compute := func() ([]byte, error) {
					res, err := cell.Run(ctx)
					if err != nil {
						return nil, err
					}
					return res.Encode()
				}
				out := new(CellOutcome)
				var key string
				var entry []byte
				var err error
				if store == nil {
					out.Payload, err = compute()
				} else {
					if keys != nil {
						key = keys[i]
					} else {
						key = cell.Key(ResultSchemaVersion)
					}
					var prior []byte
					if table != nil {
						prior = table.Prior(key)
					}
					entry, out.Payload, out.Cached, err = store.DoPrior(key, prior, compute)
				}
				if err != nil {
					return nil, err
				}
				if entry != nil && table != nil {
					out.Result, out.Entry, err = table.Decode(key, entry, out.Payload)
				} else {
					out.Result, err = DecodeCellResult(out.Payload)
				}
				if err != nil {
					return nil, err
				}
				return out, nil
			},
		}
	}
	results, err := harness.Execute(ctx, jobs, opts)
	outcomes := make([]CellOutcome, len(results))
	for i, r := range results {
		if r.Err != nil {
			outcomes[i].Err = fmt.Errorf("%s: %w", r.Label, r.Err)
		} else {
			outcomes[i] = *r.Value.(*CellOutcome)
		}
	}
	return outcomes, err
}
