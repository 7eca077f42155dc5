package transport_test

import (
	"testing"
	"unsafe"

	"ecnsharp/internal/transport"
)

// TestEndpointSizes pins the per-flow footprint: every flow holds one
// Sender and one Receiver for the whole run, so at 100k flows a grown
// field costs a size class per endpoint.
func TestEndpointSizes(t *testing.T) {
	if got := unsafe.Sizeof(transport.Sender{}); got > 416 {
		t.Errorf("Sender is %d bytes, want <= 416", got)
	}
	if got := unsafe.Sizeof(transport.Receiver{}); got > 240 {
		t.Errorf("Receiver is %d bytes, want <= 240", got)
	}
}
