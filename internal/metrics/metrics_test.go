package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"ecnsharp/internal/packet"
	"ecnsharp/internal/queue"
	"ecnsharp/internal/sim"
)

func TestFCTCollectorBreakdown(t *testing.T) {
	c := NewFCTCollector()
	// Two short, one medium, one large, one query.
	c.Record(50_000, 100*sim.Microsecond, false)
	c.Record(80_000, 300*sim.Microsecond, false)
	c.Record(1_000_000, sim.Millisecond, false)
	c.Record(20_000_000, 10*sim.Millisecond, false)
	c.Record(30_000, 500*sim.Microsecond, true)

	s := c.Stats()
	if s.OverallCount != 4 || s.ShortCount != 2 || s.LargeCount != 1 || s.QueryCount != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if math.Abs(s.ShortAvg-200) > 1e-9 {
		t.Errorf("ShortAvg = %v", s.ShortAvg)
	}
	if math.Abs(s.LargeAvg-10000) > 1e-9 {
		t.Errorf("LargeAvg = %v", s.LargeAvg)
	}
	if math.Abs(s.QueryAvg-500) > 1e-9 {
		t.Errorf("QueryAvg = %v", s.QueryAvg)
	}
	// Overall excludes the query flow.
	wantOverall := (100.0 + 300 + 1000 + 10000) / 4
	if math.Abs(s.OverallAvg-wantOverall) > 1e-9 {
		t.Errorf("OverallAvg = %v, want %v", s.OverallAvg, wantOverall)
	}
	if len(c.Records()) != 5 {
		t.Error("raw record access broken")
	}
	if got := c.ShortFCTsMicros(); len(got) != 2 {
		t.Errorf("ShortFCTsMicros len = %d", len(got))
	}
}

func TestFCTBoundaries(t *testing.T) {
	c := NewFCTCollector()
	c.Record(ShortFlowMax, sim.Microsecond, false)   // exactly 100KB: short
	c.Record(ShortFlowMax+1, sim.Microsecond, false) // just above: not short
	c.Record(LargeFlowMin, sim.Microsecond, false)   // exactly 10MB: large
	c.Record(LargeFlowMin-1, sim.Microsecond, false) // just below: not large
	s := c.Stats()
	if s.ShortCount != 1 {
		t.Errorf("ShortCount = %d", s.ShortCount)
	}
	if s.LargeCount != 1 {
		t.Errorf("LargeCount = %d", s.LargeCount)
	}
}

func TestEmptyCollector(t *testing.T) {
	s := NewFCTCollector().Stats()
	if s.OverallAvg != 0 || s.ShortP99 != 0 {
		t.Error("empty collector nonzero stats")
	}
}

func TestQueueSampler(t *testing.T) {
	eng := sim.NewEngine()
	eg := queue.NewEgress(nil, 0, nil)
	s := NewQueueSampler(eng, eg, 0, 100*sim.Microsecond, 10*sim.Microsecond)

	// Enqueue packets over time so different samples see different depths.
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(sim.Time(i*25)*sim.Microsecond, func() {
			p := &packet.Packet{Kind: packet.Data, PayloadLen: packet.MSS}
			eg.Enqueue(eng.Now(), p)
			_ = i
		})
	}
	eng.Run()

	if len(s.Samples) != 11 {
		t.Fatalf("samples = %d, want 11", len(s.Samples))
	}
	if s.Samples[0].Packets != 1 {
		// t=0: the schedule order puts the sampler tick first at t=0
		// (created before the enqueue events), so it may see 0 or 1; accept
		// either but verify monotone growth overall.
		if s.Samples[0].Packets != 0 {
			t.Errorf("first sample %d", s.Samples[0].Packets)
		}
	}
	last := s.Samples[len(s.Samples)-1]
	if last.Packets != 5 {
		t.Errorf("final sample = %d packets, want 5", last.Packets)
	}
	if peak := MaxPackets(s.Samples); peak != 5 {
		t.Errorf("MaxPackets = %d", peak)
	}
	if avg := AvgPackets(s.Samples); avg <= 0 || avg > 5 {
		t.Errorf("AvgPackets = %v", avg)
	}
}

func TestQueueSamplerPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewQueueSampler(sim.NewEngine(), queue.NewEgress(nil, 0, nil), 0, 1, 0)
}

func TestGoodputMeter(t *testing.T) {
	eng := sim.NewEngine()
	var delivered int64
	// Deliver 1.25 MB/ms => 10 Gbps.
	var tick func()
	tick = func() {
		delivered += 1_250_000
		if eng.Now() < 10*sim.Millisecond {
			eng.After(sim.Millisecond, tick)
		}
	}
	eng.Schedule(sim.Millisecond, tick)

	m := NewGoodputMeter(eng, func() int64 { return delivered },
		0, 10*sim.Millisecond, sim.Millisecond)
	eng.Run()

	if len(m.Series) == 0 {
		t.Fatal("no samples")
	}
	avg := MeanGbps(m.Series)
	if math.Abs(avg-10) > 1.5 {
		t.Errorf("avg goodput = %v Gbps, want ≈10", avg)
	}
}

func TestGoodputMeterEmptySeries(t *testing.T) {
	if MeanGbps(nil) != 0 {
		t.Error("empty series nonzero")
	}
}

func TestGoodputMeterPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewGoodputMeter(sim.NewEngine(), func() int64 { return 0 }, 0, 1, 0)
}

func TestFCTCollectorMerge(t *testing.T) {
	a := NewFCTCollector()
	b := NewFCTCollector()
	for i := 0; i < 99; i++ {
		a.Record(50_000, 100*sim.Microsecond, false)
	}
	a.Record(50_000, 10_000*sim.Microsecond, false) // one heavy-tail sample
	for i := 0; i < 100; i++ {
		b.Record(50_000, 100*sim.Microsecond, false)
	}

	avgOfP99s := (a.Stats().ShortP99 + b.Stats().ShortP99) / 2

	pooled := NewFCTCollector()
	pooled.Merge(a)
	pooled.Merge(b)
	pooled.Merge(nil) // no-op
	if len(pooled.Records()) != 200 {
		t.Fatalf("pooled count = %d, want 200", len(pooled.Records()))
	}
	// Records pool in merge order; a and b stay untouched.
	if len(a.Records()) != 100 || len(b.Records()) != 100 {
		t.Errorf("merge mutated sources: %d / %d", len(a.Records()), len(b.Records()))
	}
	if got := pooled.Records()[0]; got != a.Records()[0] {
		t.Errorf("first pooled record %+v, want %+v", got, a.Records()[0])
	}
	// The pooled p99 is a percentile of the combined 200 samples, not the
	// average of the per-seed p99s — the heavy tail sits at rank 199/200,
	// so the two must differ on this skewed fixture.
	pooledP99 := pooled.Stats().ShortP99
	if pooledP99 == avgOfP99s {
		t.Errorf("pooled p99 %.1f equals averaged p99 — pooling not in effect", pooledP99)
	}
}

// TestDecodeFCTRecords round-trips what json.Marshal writes for record
// slices, extremes included, and rejects every near miss: the parser takes
// exactly Marshal's form and says how long the value was.
func TestDecodeFCTRecords(t *testing.T) {
	for _, recs := range [][]FCTRecord{
		nil,
		{},
		{{Size: 1, FCT: 2}},
		{{Size: 0, FCT: 0, Query: true}, {Size: -7, FCT: 10}},
		{{Size: math.MaxInt64, FCT: math.MinInt64}, {Size: math.MinInt64, FCT: math.MaxInt64, Query: true}},
	} {
		b, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeFCTRecords(append(b, `,"drops":3}`...))
		if err != nil || n != len(b) || !reflect.DeepEqual(got, recs) {
			t.Errorf("%s: got %v (length %d, err %v), want %v (length %d)", b, got, n, err, recs, len(b))
		}
	}
	for _, bad := range []string{
		``, `nul`, `{}`, `[`, `[1]`, `[{}]`, `[,]`,
		`[{"size":1,"fct_ns":2},]`,
		`[{"size":1,"fct_ns":2}{"size":1,"fct_ns":2}]`,
		`[ {"size":1,"fct_ns":2}]`,
		`[{"size": 1,"fct_ns":2}]`,
		`[{"fct_ns":2,"size":1}]`,
		`[{"size":1}]`,
		`[{"size":1,"fct_ns":2,"query":false}]`,
		`[{"size":1,"fct_ns":2,"query":true,"query":true}]`,
		`[{"size":1,"fct_ns":2,"extra":0}]`,
		`[{"size":01,"fct_ns":2}]`,
		`[{"size":-0,"fct_ns":2}]`,
		`[{"size":-,"fct_ns":2}]`,
		`[{"size":1.5,"fct_ns":2}]`,
		`[{"size":1e3,"fct_ns":2}]`,
		`[{"size":"1","fct_ns":2}]`,
		`[{"size":9223372036854775808,"fct_ns":2}]`,
		`[{"size":-9223372036854775809,"fct_ns":2}]`,
		`[{"size":10000000000000000000,"fct_ns":2}]`,
		`[{"size":1,"fct_ns":2}`,
	} {
		if got, _, err := DecodeFCTRecords([]byte(bad)); err == nil {
			t.Errorf("%s: accepted as %v", bad, got)
		}
	}
}

// TestStatsOfLeavesRecords: StatsOf sorts only its own filtered copies, so
// the records keep their completion order.
func TestStatsOfLeavesRecords(t *testing.T) {
	recs := []FCTRecord{{Size: 10, FCT: 30}, {Size: 10, FCT: 10, Query: true}, {Size: 10, FCT: 20}, {Size: 10, FCT: 5, Query: true}}
	want := slices.Clone(recs)
	if s := StatsOf(recs); s.ShortP99 == 0 || s.QueryP99 == 0 {
		t.Errorf("stats = %+v", s)
	}
	if !slices.Equal(recs, want) {
		t.Errorf("StatsOf reordered its input: %v, want %v", recs, want)
	}
}
