package aqm

// Compile-time checks that every marking scheme satisfies the AQM
// interface, and that every scheme with a marking condition to attribute
// also satisfies MarkKinder. A signature drift in any implementation
// breaks the build here instead of surfacing as a silent type-assertion
// miss (MarkUnknown in traces) at runtime.
var (
	_ AQM = Nop{}
	_ AQM = (*CoDel)(nil)
	_ AQM = (*ECNSharp)(nil)
	_ AQM = (*ECNSharpProb)(nil)
	_ AQM = (*REDInstant)(nil)
	_ AQM = (*TCN)(nil)
	_ AQM = (*RED)(nil)
)

// Nop is deliberately absent: it never marks, so it has nothing to
// attribute and is the one AQM meant to exercise the MarkUnknown path.
var (
	_ MarkKinder = (*CoDel)(nil)
	_ MarkKinder = (*ECNSharp)(nil)
	_ MarkKinder = (*ECNSharpProb)(nil)
	_ MarkKinder = (*REDInstant)(nil)
	_ MarkKinder = (*TCN)(nil)
	_ MarkKinder = (*RED)(nil)
)
