package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

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
const ResultSchemaVersion = "ecnsharp-result-v3"

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
	return s.Validate()
}

// Validate checks every load point of the spec as it stands, without
// Normalize's defaults: numeric bounds first, then name resolution. It is
// the one set of checks behind every entry point — Normalize applies it
// after filling defaults, and ecnsim to the spec its flags describe — so a
// bad value is the same one-line error everywhere.
func (s *SweepSpec) Validate() error {
	for _, load := range s.Loads {
		if _, err := s.point(load); err != nil {
			return err
		}
	}
	return nil
}

// point checks one load point of the spec and resolves it into the run its
// cells share but for the seed: the figures' shapeCfg preset, the scheme
// SchemeByName derives from the RTT model, and RunConfig's defaults.
func (s *SweepSpec) point(load float64) (RunConfig, error) {
	topo, err := topoByName(s.Topo)
	if err != nil {
		return RunConfig{}, err
	}
	if !(load > 0 && load <= 1) {
		return RunConfig{}, fmt.Errorf("experiments: load %v outside (0, 1]", load)
	}
	if load < MinLoad {
		return RunConfig{}, fmt.Errorf("experiments: load %v below the minimum of %v", load, MinLoad)
	}
	if s.Flows < 1 {
		return RunConfig{}, fmt.Errorf("experiments: flows must be positive (got %d)", s.Flows)
	}
	if s.Flows > MaxFlows {
		return RunConfig{}, fmt.Errorf("experiments: flows %d above the per-cell cap of %d", s.Flows, MaxFlows)
	}
	if !(s.RTTMinUS > 0) {
		return RunConfig{}, fmt.Errorf("experiments: rtt_min_us must be positive (got %v)", s.RTTMinUS)
	}
	if s.RTTMinUS < MinRTTUS || s.RTTMinUS > MaxRTTUS {
		return RunConfig{}, fmt.Errorf("experiments: rtt_min_us %v outside [%v, %v]", s.RTTMinUS, MinRTTUS, MaxRTTUS)
	}
	if !(s.RTTVariation >= 1) {
		return RunConfig{}, fmt.Errorf("experiments: rtt_variation must be >= 1 (got %v)", s.RTTVariation)
	}
	if s.RTTMinUS*s.RTTVariation > MaxRTTUS {
		return RunConfig{}, fmt.Errorf("experiments: rtt_variation %v puts the largest RTT, rtt_min_us × rtt_variation, above %v µs",
			s.RTTVariation, MaxRTTUS)
	}
	if s.Shards < 0 {
		return RunConfig{}, fmt.Errorf("experiments: shards must be >= 0 (got %d)", s.Shards)
	}
	// Name resolution last: the RTT model construction requires the
	// numeric bounds already validated.
	rtt := rttvar.NewVariation(sim.Micros(s.RTTMinUS), s.RTTVariation)
	scheme, err := SchemeByName(s.Scheme, rtt)
	if err != nil {
		return RunConfig{}, err
	}
	if _, err := workload.ByName(s.Workload); err != nil {
		return RunConfig{}, err
	}
	if s.Trace != nil {
		if _, err := trace.ParseMask(s.Trace.Events); err != nil {
			return RunConfig{}, fmt.Errorf("experiments: trace spec: %w", err)
		}
		if s.Trace.Sample < 1 {
			return RunConfig{}, fmt.Errorf("experiments: trace sample must be >= 1 (got %d)", s.Trace.Sample)
		}
	}
	cfg := shapeCfg(topo, s.Workload, load, s.Flows)
	cfg.Scheme, cfg.RTT, cfg.Shards = scheme, rtt, s.Shards
	cfg.defaults()
	return cfg, nil
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
// "scheme" both resolve here (via SweepSpec.Validate and Cells):
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

// runConfig names RunConfig for embedding in Cell: the field takes the
// alias's name, which leaves the name RunConfig to Cell's method.
type runConfig = RunConfig

// Cell is one run of a sweep: the unit of execution, caching and result
// serialization. It is the run itself — a RunConfig, seed included and
// defaults applied, whose JSON form inlines into the cell's — plus the
// trace selection, so its canonical encoding and cache key cover every
// parameter that reaches the simulator.
type Cell struct {
	runConfig
	// Trace, when non-nil, captures the cell's JSONL event trace.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// Cells expands the normalized spec into its load × seed grid, loads
// outermost, in spec order: cell li*len(Seeds)+si is (Loads[li], Seeds[si]).
// Pool is the inverse grouping.
func (s *SweepSpec) Cells() []Cell {
	cells := make([]Cell, 0, len(s.Loads)*len(s.Seeds))
	for _, load := range s.Loads {
		cfg, err := s.point(load)
		if err != nil {
			panic(fmt.Sprintf("experiments: cells of a spec Normalize rejects: %v", err))
		}
		for _, seed := range s.Seeds {
			cfg.Seed = seed
			cells = append(cells, Cell{runConfig: cfg, Trace: s.Trace})
		}
	}
	return cells
}

// LoadPool is one load point of a sweep pooled over its seeds, in seed
// order: the pooled record stream and its statistics — true pooled
// percentiles, not averaged per-seed ones — and the summed counters.
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

// MarshalJSON encodes the cell as encoding/json would encode its RunConfig
// fields and then Trace, but with every object's keys sorted: it renders
// the cell into maps first. On its first use for a struct type,
// encoding/json builds field encoders for that type's whole static graph
// and keeps them for the life of the process — about 45 KB for
// RunConfig's, half the heap a daemon holds after one small sweep — while
// maps cost it only the leaf types.
func (c Cell) MarshalJSON() ([]byte, error) {
	m := jsonValue(reflect.ValueOf(c.runConfig)).(map[string]any)
	if c.Trace != nil {
		m["trace"] = jsonValue(reflect.ValueOf(c.Trace))
	}
	return json.Marshal(m)
}

// jsonValue renders v as maps, lists and leaves under encoding/json's
// rules: a struct is its exported fields under their json tag names, less
// those tagged "-" and the empty ones tagged omitempty; a nil pointer or
// slice is null.
func jsonValue(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return jsonValue(v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return nil
		}
		s := make([]any, v.Len())
		for i := range s {
			s[i] = jsonValue(v.Index(i))
		}
		return s
	case reflect.Struct:
		m := make(map[string]any, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			name, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
			empty := fv.Kind() != reflect.Struct && (fv.IsZero() || fv.Kind() == reflect.Slice && fv.Len() == 0)
			if name == "-" || !f.IsExported() || opt == "omitempty" && empty {
				continue
			}
			if name == "" {
				name = f.Name
			}
			m[name] = jsonValue(fv)
		}
		return m
	}
	return v.Interface()
}

// CanonicalJSON returns the cell's canonical byte encoding: a single JSON
// object of RunConfig's fields and the trace selection, keys sorted, with
// Shards dropped so the worker count does not split the cache. Two cells
// describe the same computation iff their canonical encodings are equal.
func (c Cell) CanonicalJSON() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// A cell's fields have exact encodings and a spec admits only
		// finite values; Marshal can fail only on a non-finite Tuned
		// value, which TunedParams.Validate rejects before any cell is
		// run or keyed.
		panic(fmt.Sprintf("experiments: canonicalizing cell: %v", err))
	}
	return b
}

// Key derives the cell's content-addressed cache key: the hex SHA-256 of
// the schema version and the canonical cell encoding. Everything that can
// change the result bytes is in the hash — the resolved run, seed, trace
// selection, schema/code version — and nothing else is.
func (c Cell) Key(version string) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{'\n'})
	h.Write(c.CanonicalJSON())
	return hex.EncodeToString(h.Sum(nil))
}

// RunConfig returns the run the cell executes, or why it cannot: a Tuned
// assignment that does not fit the cell's scheme. Everything else in a
// cell was checked when its spec was.
func (c Cell) RunConfig() (RunConfig, error) {
	if c.Tuned != nil {
		if _, err := c.Tuned.Schemes(c.Scheme); err != nil {
			return RunConfig{}, err
		}
	}
	return c.runConfig, nil
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
	// Cell echoes the cell that was run in its canonical form (the worker
	// count dropped), so the bytes do not depend on who computed it.
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
	// QueueSamples and Goodput are RunResult's series of the cell's
	// sampling window, absent without one (no spec sets it).
	QueueSamples []metrics.QueueSample    `json:"queue_samples,omitempty"`
	Goodput      [][]metrics.GoodputPoint `json:"goodput,omitempty"`
	// TraceJSONL is the captured event trace (empty when untraced or
	// streamed to a RunCells sink), byte-identical to what ecnsim -trace
	// writes.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
	// Report is the run's RunResult.Report when this process computed the
	// result, nil when it was decoded; no encoding or key includes it.
	Report *Report `json:"-"`
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
func (c Cell) Run(ctx context.Context) (CellResult, error) { return c.run(ctx, nil) }

// run is Run with the cell's selected events streamed to sink, when sink is
// non-nil and the cell is traced, instead of captured in TraceJSONL.
func (c Cell) run(ctx context.Context, sink trace.Tracer) (CellResult, error) {
	cfg, err := c.RunConfig()
	if err != nil {
		return CellResult{}, err
	}
	// Without a sink, a traced cell's events are encoded into an in-memory
	// buffer, so a store can keep and replay them byte-identical to a
	// streamed file.
	var (
		buf bytes.Buffer
		w   *trace.JSONLWriter
		tr  trace.Tracer
	)
	if c.Trace != nil {
		mask, err := trace.ParseMask(c.Trace.Events)
		if err != nil {
			return CellResult{}, err
		}
		if sink == nil {
			w = trace.NewJSONLWriter(&buf)
			sink = w
		}
		tr = trace.NewFilter(sink, mask, c.Trace.Sample)
	}
	res, err := RunContext(ctx, cfg, tr)
	if err != nil {
		return CellResult{}, err
	}
	c.Shards = 0 // the echo is the canonical cell, equal to its decoded form
	// A copy: a pointer into res would keep its network alive.
	report := res.Report
	out := CellResult{
		SchemaVersion: ResultSchemaVersion,
		Cell:          c,
		Stats:         res.Stats,
		Records:       append([]metrics.FCTRecord(nil), res.Collector.Records()...),
		Drops:         res.Drops,
		Marks:         res.Marks,
		Timeouts:      res.Timeouts,
		Retransmits:   res.Retransmits,
		Completed:     res.Completed,
		Failed:        res.Failed,
		Injected:      res.Injected,
		QueueSamples:  res.QueueSamples,
		Goodput:       res.Goodput,
		Report:        &report,
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
	// table entry holding that result (0 when none does). The table may
	// drop the result's TraceJSONL, which entry still holds. The result's
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
	// Result is what Payload encodes: the result this call computed, or
	// Payload decoded.
	Result CellResult
	// Entry is the id of the CellTable entry Result came from; 0 when
	// there was no table, the cell was computed, or the table holds none.
	Entry uint64
	// Err, when non-nil, is why the cell has no result (a failed or
	// timed-out run, a store error, cancellation before it started),
	// prefixed with the cell's job label.
	Err error
}

// RunCells is the one executor behind ecnsim, the figures, the daemon and
// the tuner: it fans the cells out over the harness pool, each through
// store.DoPrior(key) around Run and Encode, decodes the payload unless this
// call computed it, and returns one outcome per cell in submission order.
// keys, when non-nil, are the cells' cache keys (Cell.Key(ResultSchemaVersion)
// each) as the caller already derived them; nil derives them here. sinks,
// when non-nil, stream each traced cell's selected events to sinks[i]
// (flushing it is the caller's job) instead of into its result's
// TraceJSONL; a store would keep results without their traces, so sinks
// with a store are refused. A nil store computes every cell directly; the
// bytes are the same either way. A non-nil table supplies each cell's prior
// entry bytes and decodes every entry the store read. Per-cell failures are
// reported in the outcome, never hide the other cells, and the returned
// error is non-nil only when ctx was canceled or sinks came with a store.
// opts.OnDone observes each completion as it happens; its Progress.Value is
// the finished cell's *CellOutcome (nil when Progress.Err is set).
func RunCells(ctx context.Context, cells []Cell, keys []string, sinks []trace.Tracer, store *cache.Store, table CellTable, opts harness.Options) ([]CellOutcome, error) {
	if sinks != nil && store != nil {
		return nil, errors.New("experiments: RunCells: trace sinks with a store")
	}
	jobs := make([]harness.Job, len(cells))
	for i, cell := range cells {
		jobs[i] = harness.Job{
			Label: fmt.Sprintf("%s load=%.2f seed=%d", cell.Scheme.Label, cell.Traffic.Poisson.Load, cell.Seed),
			Run: func(ctx context.Context) (any, error) {
				var computed *CellResult
				var sink trace.Tracer
				if sinks != nil {
					sink = sinks[i]
				}
				compute := func() ([]byte, error) {
					res, err := cell.run(ctx, sink)
					if err != nil {
						return nil, err
					}
					computed = &res
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
				switch {
				case computed != nil:
					out.Result = *computed
				case entry != nil && table != nil:
					out.Result, out.Entry, err = table.Decode(key, entry, out.Payload)
				default:
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
