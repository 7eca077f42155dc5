package transport

// EndWindow runs the ACK path's window-boundary step on s: frac, the
// window's marked fraction, is folded into DCTCP's α.
func (s *Sender) EndWindow(frac float64) { s.endWindow(frac) }

// SameConfig reports whether every endpoint points at one Config.
func SameConfig(s1, s2 *Sender, r1, r2 *Receiver) bool {
	return s1.cfg == s2.cfg && s1.cfg == r1.cfg && s1.cfg == r2.cfg
}
