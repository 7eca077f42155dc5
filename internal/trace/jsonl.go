package trace

import (
	"bufio"
	"io"
	"strconv"
)

// JSONLWriter streams events as JSON Lines: one self-describing JSON
// object per event, fields in a fixed order, only the fields meaningful
// for the event's type (the schema is documented in TRACING.md). Output is
// a pure function of the event sequence — no wall-clock timestamps, no map
// iteration — so a fixed-seed run produces a byte-identical trace file,
// which the golden-file test enforces.
//
// The writer buffers internally and reuses one scratch buffer across
// events; call Flush (or Close on the underlying file after Flush) before
// reading the output. Write errors are sticky and reported by Err and
// Flush.
type JSONLWriter struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONLWriter builds a writer streaming to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// Trace encodes the event as one JSON line.
func (j *JSONLWriter) Trace(e Event) {
	if j.err != nil {
		return
	}
	j.buf = appendEventJSON(j.buf[:0], e)
	j.buf = append(j.buf, '\n')
	_, j.err = j.w.Write(j.buf)
}

// Flush writes out buffered lines and returns the first error seen.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// appendEventJSON appends the canonical JSON encoding of e. Field order is
// fixed per event type; this is the TRACING.md contract.
func appendEventJSON(b []byte, e Event) []byte {
	b = append(b, `{"ev":"`...)
	b = append(b, e.Type.String()...)
	b = append(b, '"')
	if e.Type == ECNMark {
		b = append(b, `,"kind":"`...)
		b = append(b, e.Mark.String()...)
		b = append(b, '"')
	}
	b = appendIntField(b, "at", e.At)
	switch e.Type {
	case Enqueue, Dequeue, Drop, ECNMark:
		b = appendIntField(b, "port", int64(e.Port))
		b = appendIntField(b, "q", int64(e.Queue))
		b = appendIntField(b, "flow", int64(e.FlowID))
		b = appendIntField(b, "src", int64(e.Src))
		b = appendIntField(b, "dst", int64(e.Dst))
		b = appendIntField(b, "seq", e.Seq)
		b = appendIntField(b, "size", e.Size)
		if e.Type == Dequeue || e.Type == ECNMark {
			b = appendIntField(b, "sojourn", e.Dur)
		}
		b = appendIntField(b, "qpkts", int64(e.QueuePackets))
		b = appendIntField(b, "qbytes", e.QueueBytes)
	case SojournSample:
		b = appendIntField(b, "port", int64(e.Port))
		b = appendIntField(b, "q", int64(e.Queue))
		b = appendIntField(b, "age", e.Dur)
		b = appendIntField(b, "qpkts", int64(e.QueuePackets))
		b = appendIntField(b, "qbytes", e.QueueBytes)
	case CwndUpdate:
		b = appendIntField(b, "flow", int64(e.FlowID))
		b = appendIntField(b, "src", int64(e.Src))
		b = appendIntField(b, "dst", int64(e.Dst))
		b = appendFloatField(b, "cwnd", e.Value)
	case RateUpdate:
		b = appendIntField(b, "flow", int64(e.FlowID))
		b = appendIntField(b, "src", int64(e.Src))
		b = appendIntField(b, "dst", int64(e.Dst))
		b = appendFloatField(b, "rate", e.Value)
	case ECNEcho:
		b = appendIntField(b, "flow", int64(e.FlowID))
		b = appendIntField(b, "src", int64(e.Src))
		b = appendIntField(b, "dst", int64(e.Dst))
		b = appendIntField(b, "seq", e.Seq)
		b = appendIntField(b, "size", e.Size)
	case FlowStart:
		b = appendIntField(b, "flow", int64(e.FlowID))
		b = appendIntField(b, "src", int64(e.Src))
		b = appendIntField(b, "dst", int64(e.Dst))
		b = appendIntField(b, "size", e.Size)
	case FlowFinish:
		b = appendIntField(b, "flow", int64(e.FlowID))
		b = appendIntField(b, "src", int64(e.Src))
		b = appendIntField(b, "dst", int64(e.Dst))
		b = appendIntField(b, "size", e.Size)
		b = appendIntField(b, "fct", e.Dur)
	case LinkFault:
		b = append(b, `,"action":"`...)
		b = append(b, e.Fault.String()...)
		b = append(b, '"')
		if e.Port >= 0 {
			b = appendIntField(b, "link", int64(e.Port))
		}
		if e.Src >= 0 {
			b = appendIntField(b, "switch", int64(e.Src))
		}
		b = appendIntField(b, "epoch", e.Seq)
		if e.Fault == FaultDegrade {
			b = appendFloatField(b, "rate", e.Value)
			b = appendIntField(b, "prop", e.Dur)
		}
	case Reroute:
		b = appendIntField(b, "dom", int64(e.Src))
		b = appendIntField(b, "epoch", e.Seq)
	case FlowFail:
		b = appendIntField(b, "flow", int64(e.FlowID))
		b = appendIntField(b, "src", int64(e.Src))
		b = appendIntField(b, "dst", int64(e.Dst))
		b = appendIntField(b, "size", e.Size)
		b = appendIntField(b, "elapsed", e.Dur)
	}
	return append(b, '}')
}

func appendIntField(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendFloatField(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// csvHeader is the fixed column set of CSVWriter; every event type fills
// the columns meaningful for it and leaves the rest empty.
const csvHeader = "ev,kind,at,port,q,flow,src,dst,seq,size,dur_ns,qpkts,qbytes,value\n"

// CSVWriter streams events as CSV with one fixed header and one row per
// event: the flat-table alternative to JSONL for spreadsheet or pandas
// analysis. Columns not meaningful for an event's type are left empty.
// Like JSONLWriter, output is deterministic and buffered; call Flush when
// done.
type CSVWriter struct {
	w      *bufio.Writer
	buf    []byte
	err    error
	header bool
}

// NewCSVWriter builds a writer streaming to w; the header row is written
// before the first event.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 128)}
}

// Trace encodes the event as one CSV row.
func (c *CSVWriter) Trace(e Event) {
	if c.err != nil {
		return
	}
	if !c.header {
		c.header = true
		if _, c.err = c.w.WriteString(csvHeader); c.err != nil {
			return
		}
	}
	b := c.buf[:0]
	b = append(b, e.Type.String()...)
	b = append(b, ',')
	if e.Type == ECNMark {
		b = append(b, e.Mark.String()...)
	} else if e.Type == LinkFault {
		b = append(b, e.Fault.String()...)
	}
	b = append(b, ',')
	b = strconv.AppendInt(b, e.At, 10)
	b = csvOptInt(b, int64(e.Port), e.Port >= 0)
	b = csvOptInt(b, int64(e.Queue), e.Queue >= 0)
	b = csvOptInt(b, int64(e.FlowID), e.FlowID != 0)
	b = csvOptInt(b, int64(e.Src), e.Src >= 0)
	b = csvOptInt(b, int64(e.Dst), e.Dst >= 0)
	// LinkFault and Reroute reuse the seq column for the routing epoch.
	hasSeq := e.Type == Enqueue || e.Type == Dequeue || e.Type == Drop ||
		e.Type == ECNMark || e.Type == ECNEcho || e.Type == LinkFault ||
		e.Type == Reroute
	b = csvOptInt(b, e.Seq, hasSeq)
	b = csvOptInt(b, e.Size, e.Size != 0)
	hasDur := e.Type == Dequeue || e.Type == ECNMark || e.Type == SojournSample ||
		e.Type == FlowFinish || e.Type == FlowFail ||
		(e.Type == LinkFault && e.Fault == FaultDegrade)
	b = csvOptInt(b, e.Dur, hasDur)
	hasQ := e.Type == Enqueue || e.Type == Dequeue || e.Type == Drop ||
		e.Type == ECNMark || e.Type == SojournSample
	b = csvOptInt(b, int64(e.QueuePackets), hasQ)
	b = csvOptInt(b, e.QueueBytes, hasQ)
	b = append(b, ',')
	if e.Type == CwndUpdate || e.Type == RateUpdate ||
		(e.Type == LinkFault && e.Fault == FaultDegrade) {
		b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
	}
	b = append(b, '\n')
	c.buf = b
	_, c.err = c.w.Write(b)
}

// csvOptInt appends ",v" when present, or just "," otherwise.
func csvOptInt(b []byte, v int64, present bool) []byte {
	b = append(b, ',')
	if present {
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// Flush writes out buffered rows and returns the first error seen.
func (c *CSVWriter) Flush() error {
	if c.err != nil {
		return c.err
	}
	c.err = c.w.Flush()
	return c.err
}
