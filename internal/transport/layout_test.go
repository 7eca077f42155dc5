package transport_test

import (
	"testing"
	"unsafe"

	"ecnsharp/internal/transport"
)

// TestEndpointSizes pins the per-flow footprint: every flow holds one
// Sender and one Receiver for the whole run, so at 100k flows a grown
// field costs a size class per endpoint. Both point at their table's
// shared Config instead of copying it, which keeps them in the 320- and
// 144-byte classes.
func TestEndpointSizes(t *testing.T) {
	if got := unsafe.Sizeof(transport.Sender{}); got > 320 {
		t.Errorf("Sender is %d bytes, want <= 320", got)
	}
	if got := unsafe.Sizeof(transport.Receiver{}); got > 144 {
		t.Errorf("Receiver is %d bytes, want <= 144", got)
	}
}
