package topology

// NoPacketPool returns opts with the per-domain packet free lists off
// when off is set: the unpooled reference the pool-hygiene tests compare
// pooled runs against.
func NoPacketPool(opts Options, off bool) Options {
	opts.noPacketPool = off
	return opts
}
