package trace

// Compile-time checks that every shipped tracer satisfies Tracer, so a
// signature drift breaks the build rather than the wiring sites in the
// experiment runners.
var (
	_ Tracer = Nop{}
	_ Tracer = (*RingRecorder)(nil)
	_ Tracer = (*JSONLWriter)(nil)
	_ Tracer = (*CSVWriter)(nil)
	_ Tracer = (*Filter)(nil)
)
