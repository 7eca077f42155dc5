package trace

import (
	"strings"
	"testing"
)

func ev(t Type, at int64) Event {
	return Event{Type: t, At: at, Port: -1, Queue: -1, Src: -1, Dst: -1}
}

func TestMaskOfAndHas(t *testing.T) {
	m := MaskOf(Enqueue, ECNMark)
	if !m.Has(Enqueue) || !m.Has(ECNMark) {
		t.Fatalf("mask %b missing enabled types", m)
	}
	if m.Has(Dequeue) || m.Has(FlowFinish) {
		t.Fatalf("mask %b has types that were not enabled", m)
	}
	if !AllEvents.Has(FlowFinish) || !AllEvents.Has(Enqueue) {
		t.Fatal("AllEvents must enable every type")
	}
}

func TestMaskString(t *testing.T) {
	if got := AllEvents.String(); got != "all" {
		t.Fatalf("AllEvents.String() = %q, want all", got)
	}
	if got := MaskOf(Enqueue, ECNMark).String(); got != "enqueue,mark" {
		t.Fatalf("String() = %q, want enqueue,mark", got)
	}
}

func TestParseMask(t *testing.T) {
	cases := []struct {
		in      string
		want    Mask
		wantErr bool
		errHas  string // a substring of the error, when wantErr
	}{
		{"all", AllEvents, false, ""},
		{"enqueue", MaskOf(Enqueue), false, ""},
		{"mark,sojourn", MaskOf(ECNMark, SojournSample), false, ""},
		{" mark , cwnd ", MaskOf(ECNMark, CwndUpdate), false, ""},
		{"flow_start,flow_finish", MaskOf(FlowStart, FlowFinish), false, ""},
		{"bogus", 0, true, ""},
		{"marc", 0, true, "mark"}, // the message lists the valid names
		{"", 0, true, ""},
		{",,", 0, true, ""},
	}
	for _, c := range cases {
		got, err := ParseMask(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseMask(%q): want error, got mask %v", c.in, got)
			} else if !strings.Contains(err.Error(), c.errHas) {
				t.Errorf("ParseMask(%q): error %q does not contain %q", c.in, err, c.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMask(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseMask(%q) = %b, want %b", c.in, got, c.want)
		}
	}
}

func TestParseMaskRoundTripsAllNames(t *testing.T) {
	for typ := Type(0); typ < numTypes; typ++ {
		m, err := ParseMask(typ.String())
		if err != nil {
			t.Fatalf("ParseMask(%q): %v", typ.String(), err)
		}
		if m != MaskOf(typ) {
			t.Fatalf("ParseMask(%q) = %b, want %b", typ.String(), m, MaskOf(typ))
		}
	}
}

// TestRingRecorder: a ring behind a Filter keeps the most recent of the
// events the filter passes, oldest first.
func TestRingRecorder(t *testing.T) {
	cases := []struct {
		name    string
		cap     int
		stride  int
		mask    Mask
		offer   []Event
		wantAts []int64 // At values expected in Events(), oldest first
		wantEvi uint64
	}{
		{
			name: "under capacity keeps all in order",
			cap:  4, stride: 1, mask: AllEvents,
			offer:   []Event{ev(Enqueue, 1), ev(Dequeue, 2), ev(Drop, 3)},
			wantAts: []int64{1, 2, 3}, wantEvi: 0,
		},
		{
			name: "wraparound evicts oldest",
			cap:  3, stride: 1, mask: AllEvents,
			offer: []Event{ev(Enqueue, 1), ev(Enqueue, 2), ev(Enqueue, 3),
				ev(Enqueue, 4), ev(Enqueue, 5)},
			wantAts: []int64{3, 4, 5}, wantEvi: 2,
		},
		{
			name: "stride keeps first of each window",
			cap:  10, stride: 3, mask: AllEvents,
			offer: []Event{ev(Enqueue, 1), ev(Enqueue, 2), ev(Enqueue, 3),
				ev(Enqueue, 4), ev(Enqueue, 5), ev(Enqueue, 6), ev(Enqueue, 7)},
			wantAts: []int64{1, 4, 7}, wantEvi: 0,
		},
		{
			name: "type filter drops other events entirely",
			cap:  10, stride: 1, mask: MaskOf(ECNMark),
			offer: []Event{ev(Enqueue, 1), ev(ECNMark, 2), ev(Dequeue, 3),
				ev(ECNMark, 4)},
			wantAts: []int64{2, 4}, wantEvi: 0,
		},
		{
			name: "stride counts only mask-passing events",
			cap:  10, stride: 2, mask: MaskOf(ECNMark),
			offer: []Event{ev(Enqueue, 1), ev(ECNMark, 2), ev(Enqueue, 3),
				ev(ECNMark, 4), ev(ECNMark, 5), ev(Enqueue, 6), ev(ECNMark, 7)},
			wantAts: []int64{2, 5}, wantEvi: 0,
		},
		{
			name: "stride then wraparound compose",
			cap:  2, stride: 2, mask: AllEvents,
			offer: []Event{ev(Enqueue, 1), ev(Enqueue, 2), ev(Enqueue, 3),
				ev(Enqueue, 4), ev(Enqueue, 5), ev(Enqueue, 6), ev(Enqueue, 7)},
			wantAts: []int64{5, 7}, wantEvi: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRingRecorder(c.cap)
			f := NewFilter(r, c.mask, c.stride)
			for _, e := range c.offer {
				f.Trace(e)
			}
			got := r.Events()
			if len(got) != len(c.wantAts) {
				t.Fatalf("Len = %d, want %d (events %v)", len(got), len(c.wantAts), got)
			}
			for i, e := range got {
				if e.At != c.wantAts[i] {
					t.Errorf("event[%d].At = %d, want %d", i, e.At, c.wantAts[i])
				}
			}
			if r.Evicted() != c.wantEvi {
				t.Errorf("Evicted = %d, want %d", r.Evicted(), c.wantEvi)
			}
			r.Reset()
			if r.Len() != 0 || r.Evicted() != 0 {
				t.Errorf("Reset left state: len=%d evicted=%d", r.Len(), r.Evicted())
			}
		})
	}
}

func TestRingRecorderPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRingRecorder(0) did not panic")
		}
	}()
	NewRingRecorder(0)
}

func TestFilterForwardsSampledSubset(t *testing.T) {
	sink := NewRingRecorder(16)
	f := NewFilter(sink, MaskOf(ECNMark), 2)
	for i := int64(1); i <= 6; i++ {
		f.Trace(ev(ECNMark, i))
		f.Trace(ev(Enqueue, 100+i))
	}
	got := sink.Events()
	want := []int64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("forwarded %d events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.At != want[i] || e.Type != ECNMark {
			t.Errorf("event[%d] = {%v %d}, want {mark %d}", i, e.Type, e.At, want[i])
		}
	}
}
func TestJSONLWriterFormat(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		want string
	}{
		{
			name: "enqueue",
			e: Event{Type: Enqueue, At: 1000, Port: 2, Queue: 0, FlowID: 7,
				Src: 3, Dst: 16, Seq: 1460, Size: 1500, QueuePackets: 4, QueueBytes: 6000},
			want: `{"ev":"enqueue","at":1000,"port":2,"q":0,"flow":7,"src":3,"dst":16,"seq":1460,"size":1500,"qpkts":4,"qbytes":6000}`,
		},
		{
			name: "dequeue has sojourn",
			e: Event{Type: Dequeue, At: 2000, Port: 2, Queue: 0, FlowID: 7,
				Src: 3, Dst: 16, Seq: 1460, Size: 1500, Dur: 120000, QueuePackets: 3, QueueBytes: 4500},
			want: `{"ev":"dequeue","at":2000,"port":2,"q":0,"flow":7,"src":3,"dst":16,"seq":1460,"size":1500,"sojourn":120000,"qpkts":3,"qbytes":4500}`,
		},
		{
			name: "mark carries kind",
			e: Event{Type: ECNMark, Mark: MarkPersistent, At: 3000, Port: 2, Queue: 0,
				FlowID: 7, Src: 3, Dst: 16, Seq: 2920, Size: 1500, Dur: 90000,
				QueuePackets: 5, QueueBytes: 7500},
			want: `{"ev":"mark","kind":"persistent","at":3000,"port":2,"q":0,"flow":7,"src":3,"dst":16,"seq":2920,"size":1500,"sojourn":90000,"qpkts":5,"qbytes":7500}`,
		},
		{
			name: "sojourn sample",
			e: Event{Type: SojournSample, At: 4000, Port: 1, Queue: 0, FlowID: 0,
				Src: -1, Dst: -1, Dur: 55000, QueuePackets: 9, QueueBytes: 13500},
			want: `{"ev":"sojourn","at":4000,"port":1,"q":0,"age":55000,"qpkts":9,"qbytes":13500}`,
		},
		{
			name: "cwnd update",
			e: Event{Type: CwndUpdate, At: 5000, Port: -1, Queue: -1, FlowID: 7,
				Src: 3, Dst: 16, Value: 14600},
			want: `{"ev":"cwnd","at":5000,"flow":7,"src":3,"dst":16,"cwnd":14600}`,
		},
		{
			name: "rate update",
			e: Event{Type: RateUpdate, At: 6000, Port: -1, Queue: -1, FlowID: 8,
				Src: 4, Dst: 16, Value: 5e9},
			want: `{"ev":"rate","at":6000,"flow":8,"src":4,"dst":16,"rate":5e+09}`,
		},
		{
			name: "echo",
			e: Event{Type: ECNEcho, At: 6500, Port: -1, Queue: -1, FlowID: 7,
				Src: 3, Dst: 16, Seq: 2920, Size: 1500},
			want: `{"ev":"echo","at":6500,"flow":7,"src":3,"dst":16,"seq":2920,"size":1500}`,
		},
		{
			name: "flow start",
			e: Event{Type: FlowStart, At: 0, Port: -1, Queue: -1, FlowID: 7,
				Src: 3, Dst: 16, Size: 64000},
			want: `{"ev":"flow_start","at":0,"flow":7,"src":3,"dst":16,"size":64000}`,
		},
		{
			name: "flow finish has fct",
			e: Event{Type: FlowFinish, At: 800000, Port: -1, Queue: -1, FlowID: 7,
				Src: 3, Dst: 16, Size: 64000, Dur: 800000},
			want: `{"ev":"flow_finish","at":800000,"flow":7,"src":3,"dst":16,"size":64000,"fct":800000}`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			w := NewJSONLWriter(&sb)
			w.Trace(c.e)
			if err := w.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			got := strings.TrimSuffix(sb.String(), "\n")
			if got != c.want {
				t.Errorf("line mismatch\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

func TestJSONLWriterDeterministic(t *testing.T) {
	events := []Event{
		{Type: Enqueue, At: 10, Port: 0, Queue: 0, FlowID: 1, Src: 0, Dst: 1, Seq: 0, Size: 1500, QueuePackets: 1, QueueBytes: 1500},
		{Type: ECNMark, Mark: MarkInstantaneous, At: 20, Port: 0, Queue: 0, FlowID: 1, Src: 0, Dst: 1, Seq: 0, Size: 1500, Dur: 10, QueuePackets: 1, QueueBytes: 1500},
		{Type: FlowFinish, At: 30, Port: -1, Queue: -1, FlowID: 1, Src: 0, Dst: 1, Size: 1500, Dur: 30},
	}
	render := func() string {
		var sb strings.Builder
		w := NewJSONLWriter(&sb)
		for _, e := range events {
			w.Trace(e)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a, b)
	}
}

func TestCSVWriterFormat(t *testing.T) {
	var sb strings.Builder
	w := NewCSVWriter(&sb)
	w.Trace(Event{Type: Dequeue, At: 2000, Port: 2, Queue: 0, FlowID: 7,
		Src: 3, Dst: 16, Seq: 1460, Size: 1500, Dur: 120000, QueuePackets: 3, QueueBytes: 4500})
	w.Trace(Event{Type: CwndUpdate, At: 5000, Port: -1, Queue: -1, FlowID: 7,
		Src: 3, Dst: 16, Value: 14600})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := "ev,kind,at,port,q,flow,src,dst,seq,size,dur_ns,qpkts,qbytes,value\n" +
		"dequeue,,2000,2,0,7,3,16,1460,1500,120000,3,4500,\n" +
		"cwnd,,5000,,,7,3,16,,,,,,14600\n"
	if sb.String() != want {
		t.Errorf("csv mismatch\n got: %q\nwant: %q", sb.String(), want)
	}
}

func TestNopTrace(t *testing.T) {
	var n Nop
	n.Trace(ev(Enqueue, 1)) // must not panic; that's the whole contract
}

func TestTypeStringUnknown(t *testing.T) {
	if got := Type(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown Type.String() = %q", got)
	}
	if got := MarkKind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown MarkKind.String() = %q", got)
	}
}

func BenchmarkJSONLWriterTrace(b *testing.B) {
	w := NewJSONLWriter(discard{})
	e := Event{Type: Dequeue, At: 2000, Port: 2, Queue: 0, FlowID: 7,
		Src: 3, Dst: 16, Seq: 1460, Size: 1500, Dur: 120000, QueuePackets: 3, QueueBytes: 4500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Trace(e)
	}
}

func BenchmarkRingRecorderTrace(b *testing.B) {
	r := NewRingRecorder(1024)
	e := ev(Enqueue, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Trace(e)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
