// Package fmaprobe is the positive control of TestNoFusedMultiplyAdd: one
// x*y + z that every GOARCH the test lists fuses.
package fmaprobe

// Probe returns x*y + z.
func Probe(x, y, z float64) float64 { return x*y + z }
