package tofino

// Name returns the register array's name.
func (r *Reg32) Name() string { return r.name }

// Ports returns the array length.
func (r *Reg32) Ports() int { return len(r.vals) }

// Peek reads a value outside a packet pass (control-plane access).
func (r *Reg32) Peek(port int) uint32 { return r.vals[port] }

// Poke writes a value outside a packet pass (control-plane access).
func (r *Reg32) Poke(port int, v uint32) { r.vals[port] = v }

// Tables returns the program's match-action tables in pipeline order.
func (e *ECNSharpP4) Tables() []*Table { return e.tables }

// Stats returns (instantaneous, persistent) mark counts for a port.
func (e *ECNSharpP4) Stats(port int) (inst, pst uint64) {
	v := e.markStats.Peek(port)
	return v >> 32, v & 0xffffffff
}

// Peek reads a value outside a packet pass.
func (r *Reg64) Peek(port int) uint64 { return r.vals[port] }
