// Package transport implements the end-host half of ECN-based datacenter
// transports: a reliable byte-stream sender/receiver pair. A flow's Sender
// is window-based DCTCP (proportional cut driven by the marked fraction,
// λ≈α/2) or, when its Config.DCQCN is set, a DCQCN-style rate sender.
//
// The model is packet-granular and deliberately simple where the paper's
// results do not depend on the detail (no SACK, NewReno-style recovery
// without window inflation), and faithful where they do: ECN feedback,
// DCTCP's α estimator and once-per-window cut, fast retransmit, RTO with
// a configurable minimum (timeouts dominate incast FCTs in Figure 11),
// and optional delayed ACKs with DCTCP's CE-change immediate-ACK rule.
package transport
