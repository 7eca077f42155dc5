package rttvar_test

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
)

// Example shows how experiments consume RTT variation: build the §5.3
// distribution, read the statistics operators would get from PingMesh,
// and hand each flow a netem-style extra delay.
func Example() {
	// 3× variation from 80 to 240 µs (the leaf-spine simulation setup).
	d := rttvar.NewRTTDistribution(80*sim.Microsecond, 240*sim.Microsecond)
	fmt.Printf("mean %.0f us, p90 %.0f us, variation %.0fx\n",
		d.Mean().Micros(), d.Percentile(90).Micros(), float64(d.Max)/float64(d.Min))

	// Each flow samples a base RTT; the assigner converts it to the extra
	// sender-side delay that realizes it on a path with 10 µs intrinsic RTT.
	rng := rand.New(rand.NewSource(1))
	a := rttvar.NewAssigner(d, 10*sim.Microsecond, rng)
	rtt, extra := a.Next()
	fmt.Println(rtt == 10*sim.Microsecond+extra)

	// Output:
	// mean 135 us, p90 220 us, variation 3x
	// true
}
