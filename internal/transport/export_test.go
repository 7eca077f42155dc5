package transport

// EndWindow runs the ACK path's window-boundary step on s: frac, the
// window's marked fraction, is folded into DCTCP's α.
func (s *Sender) EndWindow(frac float64) { s.endWindow(frac) }
