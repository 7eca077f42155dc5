package transport

import "ecnsharp/internal/device"

// Compile-time checks that every flow endpoint satisfies
// device.PacketHandler, so a signature drift breaks the build rather than
// a registration site.
var (
	_ device.PacketHandler = (*Sender)(nil)
	_ device.PacketHandler = (*Receiver)(nil)
)
