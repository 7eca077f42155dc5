// Package tofino models the parts of the Barefoot Tofino programmable
// switch that §4 of the paper wrestles with, and implements ECN♯ against
// that model. The point is not to simulate a switch ASIC, but to enforce
// the two constraints that shaped the paper's implementation and verify
// the constrained program still equals the reference algorithm:
//
//   - A register array may be accessed at most once per packet per
//     pipeline pass, where one "access" is a full read-compare-update.
//     Violations are runtime errors here (on hardware: compile errors).
//   - ALUs take 32-bit operands, so the 64-bit nanosecond
//     egress_global_tstamp cannot be used directly; Algorithm 2 emulates a
//     32-bit microsecond clock from it using two registers.
//
// Control flow is expressed as match-action tables over per-packet
// metadata, mirroring Figure 4c: conditions are evaluated into metadata
// first, then each table matches the metadata and runs exactly one action,
// inside which each register is touched at most once.
package tofino

import (
	"fmt"
)

// PacketContext tracks one packet's pass through the pipeline: which
// register arrays were accessed and which tables applied.
type PacketContext struct {
	regsAccessed  map[string]bool
	tablesApplied map[string]bool
	// Metadata is the packet's per-pass scratch space (PHV fields).
	Metadata map[string]uint32
}

// NewPacketContext starts a fresh pipeline pass.
func NewPacketContext() *PacketContext {
	return &PacketContext{
		regsAccessed:  make(map[string]bool),
		tablesApplied: make(map[string]bool),
		Metadata:      make(map[string]uint32),
	}
}

func (c *PacketContext) noteRegister(name string) error {
	if c.regsAccessed[name] {
		return fmt.Errorf("tofino: register %q accessed twice in one pass "+
			"(Tofino allows a single read-modify-write per packet)", name)
	}
	c.regsAccessed[name] = true
	return nil
}

func (c *PacketContext) noteTable(name string) error {
	if c.tablesApplied[name] {
		return fmt.Errorf("tofino: table %q applied twice in one pass", name)
	}
	c.tablesApplied[name] = true
	return nil
}

// Reg32 is a 32-bit register array indexed by egress port.
type Reg32 struct {
	name string
	vals []uint32
}

// NewReg32 allocates a 32-bit register array with one slot per port.
func NewReg32(name string, ports int) *Reg32 {
	return &Reg32{name: name, vals: make([]uint32, ports)}
}

// Bytes returns the array's memory footprint.
func (r *Reg32) Bytes() int { return 4 * len(r.vals) }

// Access performs the single permitted read-modify-write for this packet:
// f receives the current value and returns (next value, output metadata).
func (r *Reg32) Access(ctx *PacketContext, port int, f func(cur uint32) (next, out uint32)) (uint32, error) {
	if err := ctx.noteRegister(r.name); err != nil {
		return 0, err
	}
	next, out := f(r.vals[port])
	r.vals[port] = next
	return out, nil
}

// Reg64 is a 64-bit register array (Tofino supports paired 32-bit cells);
// the ECN♯ prototype uses these for statistics counters.
type Reg64 struct {
	name string
	vals []uint64
}

// NewReg64 allocates a 64-bit register array with one slot per port.
func NewReg64(name string, ports int) *Reg64 {
	return &Reg64{name: name, vals: make([]uint64, ports)}
}

// Bytes returns the array's memory footprint.
func (r *Reg64) Bytes() int { return 8 * len(r.vals) }

// Access performs the single permitted read-modify-write for this packet.
func (r *Reg64) Access(ctx *PacketContext, port int, f func(cur uint64) (next, out uint64)) (uint64, error) {
	if err := ctx.noteRegister(r.name); err != nil {
		return 0, err
	}
	next, out := f(r.vals[port])
	r.vals[port] = next
	return out, nil
}

// Action is one match-action table action operating on packet metadata.
type Action func(ctx *PacketContext) error

// Table is an exact-match match-action table keyed on a metadata field.
// A table may be applied at most once per packet pass.
type Table struct {
	// Name identifies the table in diagnostics and the resource census.
	Name string
	// Key names the metadata field matched on; empty means always-default.
	Key string
	// Entries maps key values to actions.
	Entries map[uint32]Action
	// Default runs when no entry matches (most of the prototype's tables
	// only have a default action, as §4 notes).
	Default Action
}

// Apply matches the packet's metadata and runs the selected action.
func (t *Table) Apply(ctx *PacketContext) error {
	if err := ctx.noteTable(t.Name); err != nil {
		return err
	}
	if t.Key != "" {
		if a, ok := t.Entries[ctx.Metadata[t.Key]]; ok {
			return a(ctx)
		}
	}
	if t.Default != nil {
		return t.Default(ctx)
	}
	return nil
}

// EntryCount returns the number of explicit entries.
func (t *Table) EntryCount() int { return len(t.Entries) }
