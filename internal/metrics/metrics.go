// Package metrics collects the measurements the paper reports: flow
// completion times broken down by flow size (the primary metric, §5.1),
// queue-occupancy time series for the microscopic views (Figure 10), and
// per-flow goodput series for the scheduler experiment (Figure 13a).
package metrics

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"ecnsharp/internal/dist"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// Flow size class boundaries used throughout the evaluation (§5.1).
const (
	ShortFlowMax = 100 * 1000       // short flows: (0, 100KB]
	LargeFlowMin = 10 * 1000 * 1000 // large flows: [10MB, ∞)
)

// FCTRecord is one completed flow. The JSON field names are part of the
// cached-result schema served by ecnsharpd (see docs/API.md): sizes in
// bytes, completion times in simulated nanoseconds.
type FCTRecord struct {
	Size  int64    `json:"size"`
	FCT   sim.Time `json:"fct_ns"`
	Query bool     `json:"query,omitempty"`
}

// DecodeFCTRecords parses the JSON value at the start of data that
// json.Marshal writes for a []FCTRecord, and nothing else: null (a nil
// slice), [] or objects {"size":N,"fct_ns":N} with an optional
// ,"query":true, integers in Marshal's form with no whitespace. It returns
// the records and the length of the value; the rest of data is not read.
// Digits are parsed in place, so the result slice is the one allocation.
func DecodeFCTRecords(data []byte) ([]FCTRecord, int, error) {
	p := recordParser{b: data}
	if p.lit("null") {
		return nil, p.i, nil
	}
	// A record holds no array or string, so the first ']' closes the array.
	end := bytes.IndexByte(data, ']')
	if end < 0 || !p.lit("[") {
		return nil, 0, errors.New("metrics: FCT records are not a JSON array")
	}
	p.b = data[:end+1]
	recs := make([]FCTRecord, 0, bytes.Count(p.b, []byte{'{'}))
	for p.i < end {
		var size, fct int64
		ok := (len(recs) == 0 || p.lit(",")) && p.lit(`{"size":`) && p.int(&size) &&
			p.lit(`,"fct_ns":`) && p.int(&fct)
		query := ok && p.lit(`,"query":true`)
		if !ok || !p.lit("}") {
			return nil, 0, fmt.Errorf("metrics: bad FCT record at byte %d", p.i)
		}
		recs = append(recs, FCTRecord{Size: size, FCT: sim.Time(fct), Query: query})
	}
	return recs, end + 1, nil
}

// recordParser walks one FCT record array; i is the next unread byte of b.
type recordParser struct {
	b []byte
	i int
}

// lit consumes s if b continues with it.
func (p *recordParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// int consumes an integer as strconv.AppendInt writes it into *v: an
// optional minus, then 0 or a nonzero digit and at most 18 more, within
// int64.
func (p *recordParser) int(v *int64) bool {
	b := p.b[p.i:]
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	var u uint64 // 19 digits never overflow a uint64
	for n < len(b) && n < 20 && '0' <= b[n] && b[n] <= '9' {
		u = 10*u + uint64(b[n]-'0')
		n++
	}
	switch {
	case n == 0 || n > 19 || (b[0] == '0' && (n > 1 || neg)):
		return false
	case u > math.MaxInt64 && !(neg && u == 1<<63):
		return false
	}
	*v = int64(u)
	if neg {
		*v = -*v
		p.i++
	}
	p.i += n
	return true
}

// FCTCollector accumulates flow completion times.
type FCTCollector struct {
	records []FCTRecord
}

// NewFCTCollector returns an empty collector.
func NewFCTCollector() *FCTCollector { return &FCTCollector{} }

// CollectorFromRecords rebuilds a collector around an existing record set,
// copying the slice — the way cached results decoded from disk re-enter
// the metrics pipeline (e.g. to pool statistics across cache hits exactly
// like freshly computed runs).
func CollectorFromRecords(recs []FCTRecord) *FCTCollector {
	return &FCTCollector{records: append([]FCTRecord(nil), recs...)}
}

// Record adds one completed flow.
func (c *FCTCollector) Record(size int64, fct sim.Time, query bool) {
	c.records = append(c.records, FCTRecord{Size: size, FCT: fct, Query: query})
}

// Merge appends all of other's records, pooling the two sample sets.
// Multi-seed experiments merge per-seed collectors and compute statistics
// over the pooled records, so percentiles are true percentiles of the
// combined distribution rather than averages of per-seed percentiles.
func (c *FCTCollector) Merge(other *FCTCollector) {
	if other == nil {
		return
	}
	c.records = append(c.records, other.records...)
}

// Records returns the raw records (not a copy; treat as read-only).
func (c *FCTCollector) Records() []FCTRecord { return c.records }

// filter returns FCTs in microseconds for the records matching pred, in a
// new slice.
func filter(recs []FCTRecord, pred func(FCTRecord) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if pred(r) {
			out = append(out, r.FCT.Micros())
		}
	}
	return out
}

// FCTStats is the per-class breakdown the paper's figures plot.
// All values are microseconds. The JSON field names are part of the
// ecnsharpd result schema (docs/API.md).
type FCTStats struct {
	OverallAvg float64 `json:"overall_avg_us"`
	ShortAvg   float64 `json:"short_avg_us"`
	ShortP99   float64 `json:"short_p99_us"`
	LargeAvg   float64 `json:"large_avg_us"`
	QueryAvg   float64 `json:"query_avg_us"`
	QueryP99   float64 `json:"query_p99_us"`

	OverallCount int `json:"overall_count"`
	ShortCount   int `json:"short_count"`
	LargeCount   int `json:"large_count"`
	QueryCount   int `json:"query_count"`
}

// Stats computes the breakdown. Query flows are excluded from the
// size-class statistics (they are reported separately in Figure 11).
func (c *FCTCollector) Stats() FCTStats { return StatsOf(c.records) }

// StatsOf is Stats over a record slice, which it only reads.
func StatsOf(recs []FCTRecord) FCTStats {
	background := func(r FCTRecord) bool { return !r.Query }
	short := func(r FCTRecord) bool { return !r.Query && r.Size <= ShortFlowMax }
	large := func(r FCTRecord) bool { return !r.Query && r.Size >= LargeFlowMin }
	query := func(r FCTRecord) bool { return r.Query }

	all := filter(recs, background)
	sh := filter(recs, short)
	lg := filter(recs, large)
	qr := filter(recs, query)

	// Means first: they sum in completion order, and a sum's last bit
	// depends on its order. The filtered slices are this call's own, so
	// the percentiles sort them in place.
	s := FCTStats{
		OverallAvg:   dist.Mean(all),
		ShortAvg:     dist.Mean(sh),
		LargeAvg:     dist.Mean(lg),
		QueryAvg:     dist.Mean(qr),
		OverallCount: len(all),
		ShortCount:   len(sh),
		LargeCount:   len(lg),
		QueryCount:   len(qr),
	}
	slices.Sort(sh)
	slices.Sort(qr)
	s.ShortP99, s.QueryP99 = dist.PercentileSorted(sh, 99), dist.PercentileSorted(qr, 99)
	return s
}

// ShortFCTsMicros returns the short-flow FCT samples in µs (for CDFs,
// Figure 13b).
func (c *FCTCollector) ShortFCTsMicros() []float64 {
	return filter(c.records, func(r FCTRecord) bool { return !r.Query && r.Size <= ShortFlowMax })
}

// QueueSample is one point of a queue-occupancy trace.
type QueueSample struct {
	At      sim.Time `json:"at_ns"`
	Packets int      `json:"packets"`
	Bytes   int64    `json:"bytes"`
}

// QueueSampler periodically records the occupancy of an egress buffer.
type QueueSampler struct {
	eng     *sim.Engine
	eg      *queue.Egress
	Samples []QueueSample
}

// NewQueueSampler samples eg every interval during [start, end].
func NewQueueSampler(eng *sim.Engine, eg *queue.Egress, start, end, interval sim.Time) *QueueSampler {
	if interval <= 0 {
		panic("metrics: sampler interval must be positive")
	}
	s := &QueueSampler{eng: eng, eg: eg}
	var tick func()
	tick = func() {
		s.Samples = append(s.Samples, QueueSample{At: eng.Now(), Packets: eg.Len(), Bytes: eg.Bytes()})
		if tr := eng.Tracer(); tr != nil {
			now := eng.Now()
			tr.Trace(trace.Event{Type: trace.SojournSample, At: int64(now),
				Port: eg.TracePort(), Queue: -1, Src: -1, Dst: -1,
				Dur: int64(eg.HeadAge(now)), QueuePackets: eg.Len(), QueueBytes: eg.Bytes()})
		}
		if eng.Now()+interval <= end {
			eng.After(interval, tick)
		}
	}
	eng.Schedule(start, tick)
	return s
}

// AvgPackets returns the mean occupancy of samples in packets (0 when
// empty).
func AvgPackets(samples []QueueSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	total := 0
	for _, smp := range samples {
		total += smp.Packets
	}
	return float64(total) / float64(len(samples))
}

// MaxPackets returns the peak occupancy of samples in packets.
func MaxPackets(samples []QueueSample) int {
	peak := 0
	for _, smp := range samples {
		peak = max(peak, smp.Packets)
	}
	return peak
}

// GoodputPoint is one goodput measurement of one flow.
type GoodputPoint struct {
	At   sim.Time `json:"at_ns"`
	Gbps float64  `json:"gbps"`
}

// GoodputMeter samples a monotone delivered-bytes counter and reports the
// per-interval goodput series (Figure 13a).
type GoodputMeter struct {
	eng    *sim.Engine
	read   func() int64
	last   int64
	Series []GoodputPoint
}

// NewGoodputMeter samples read() every interval during [start, end]; read
// must return cumulative delivered bytes (e.g. Receiver.BytesInOrder).
func NewGoodputMeter(eng *sim.Engine, read func() int64, start, end, interval sim.Time) *GoodputMeter {
	if interval <= 0 {
		panic("metrics: meter interval must be positive")
	}
	m := &GoodputMeter{eng: eng, read: read}
	var tick func()
	tick = func() {
		cur := m.read()
		gbps := float64(cur-m.last) * 8 / interval.Seconds() / 1e9
		m.last = cur
		m.Series = append(m.Series, GoodputPoint{At: eng.Now(), Gbps: gbps})
		if eng.Now()+interval <= end {
			eng.After(interval, tick)
		}
	}
	eng.Schedule(start, func() {
		m.last = m.read()
		eng.After(interval, tick)
	})
	return m
}

// MeanGbps returns the mean goodput of a sampled series (0 when empty).
func MeanGbps(series []GoodputPoint) float64 {
	if len(series) == 0 {
		return 0
	}
	total := 0.0
	for _, p := range series {
		total += p.Gbps
	}
	return total / float64(len(series))
}
