package tofino

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
)

func TestReg32SingleAccessEnforced(t *testing.T) {
	r := NewReg32("r", 4)
	ctx := NewPacketContext()
	if _, err := r.Access(ctx, 1, func(cur uint32) (uint32, uint32) { return cur + 1, cur }); err != nil {
		t.Fatalf("first access failed: %v", err)
	}
	if _, err := r.Access(ctx, 1, func(cur uint32) (uint32, uint32) { return cur, cur }); err == nil {
		t.Fatal("second access to the same register array in one pass allowed")
	}
	// Even a different index of the same array counts (one array, one ALU).
	ctx2 := NewPacketContext()
	if _, err := r.Access(ctx2, 0, func(cur uint32) (uint32, uint32) { return cur, cur }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Access(ctx2, 3, func(cur uint32) (uint32, uint32) { return cur, cur }); err == nil {
		t.Fatal("second access via different index allowed")
	}
	// A new packet context resets the budget.
	ctx3 := NewPacketContext()
	if _, err := r.Access(ctx3, 1, func(cur uint32) (uint32, uint32) { return cur, cur }); err != nil {
		t.Fatal(err)
	}
	if r.Peek(1) != 1 {
		t.Errorf("register value = %d, want 1", r.Peek(1))
	}
	r.Poke(2, 42)
	if r.Peek(2) != 42 {
		t.Error("Poke/Peek broken")
	}
	if r.Name() != "r" || r.Ports() != 4 || r.Bytes() != 16 {
		t.Error("metadata accessors broken")
	}
}

func TestReg64SingleAccessEnforced(t *testing.T) {
	r := NewReg64("r64", 2)
	ctx := NewPacketContext()
	if _, err := r.Access(ctx, 0, func(cur uint64) (uint64, uint64) { return cur + 7, cur }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Access(ctx, 0, func(cur uint64) (uint64, uint64) { return cur, cur }); err == nil {
		t.Fatal("second access allowed")
	}
	if r.Peek(0) != 7 {
		t.Error("update lost")
	}
	if r.Bytes() != 16 {
		t.Error("Bytes")
	}
}

func TestTableApplyOncePerPass(t *testing.T) {
	hits := 0
	tbl := &Table{Name: "t", Default: func(*PacketContext) error { hits++; return nil }}
	ctx := NewPacketContext()
	if err := tbl.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Apply(ctx); err == nil {
		t.Fatal("second apply allowed")
	}
	if hits != 1 {
		t.Errorf("hits = %d", hits)
	}
}

func TestTableMatchesOnMetadata(t *testing.T) {
	var path string
	tbl := &Table{
		Name: "t",
		Key:  "cond",
		Entries: map[uint32]Action{
			0: func(*PacketContext) error { path = "zero"; return nil },
			1: func(*PacketContext) error { path = "one"; return nil },
		},
		Default: func(*PacketContext) error { path = "default"; return nil },
	}
	ctx := NewPacketContext()
	ctx.Metadata["cond"] = 1
	tbl.Apply(ctx)
	if path != "one" {
		t.Errorf("path = %q", path)
	}
	ctx2 := NewPacketContext()
	ctx2.Metadata["cond"] = 99
	tbl.Apply(ctx2)
	if path != "default" {
		t.Errorf("fallback path = %q", path)
	}
	if tbl.EntryCount() != 2 {
		t.Error("EntryCount")
	}
}

func TestTimeEmulatorTracksReferenceAcrossWraps(t *testing.T) {
	emu := NewTimeEmulator(1, WrapLT)
	rng := rand.New(rand.NewSource(1))
	// 12 seconds of hardware time crosses the 22-bit (~4.19 s) wrap twice;
	// packets every ~1.2-1.6 µs always observe each wrap.
	var mismatches int
	for ns := uint64(0); ns < 12_000_000_000; ns += 1200 + uint64(rng.Intn(400)) {
		ctx := NewPacketContext()
		got, err := emu.CurrentTime(ctx, 0, ns)
		if err != nil {
			t.Fatal(err)
		}
		if got != ReferenceTimeUS(ns) {
			mismatches++
		}
	}
	if mismatches != 0 {
		t.Errorf("%d mismatches vs 64-bit reference", mismatches)
	}
}

func TestTimeEmulatorWrapLEIsCorruptedBySubTickPackets(t *testing.T) {
	// The literal Algorithm 2 pseudocode (wrap on <=) misfires when two
	// packets observe the same 2^10 ns tick — routine at 10 Gbps.
	emuLE := NewTimeEmulator(1, WrapLE)
	bad := 0
	for ns := uint64(0); ns < 2_000_000; ns += 300 {
		ctx := NewPacketContext()
		got, err := emuLE.CurrentTime(ctx, 0, ns)
		if err != nil {
			t.Fatal(err)
		}
		if got != ReferenceTimeUS(ns) {
			bad++
		}
	}
	if bad == 0 {
		t.Error("WrapLE unexpectedly clean on sub-tick packet spacing; the pseudocode quirk vanished")
	}
}

func TestTimeEmulatorPerPortIndependence(t *testing.T) {
	emu := NewTimeEmulator(2, WrapLT)
	// Port 0 advances far; port 1 then starts from early timestamps and
	// must not be affected by port 0's wrap counter.
	for ns := uint64(0); ns < 5_000_000_000; ns += 1_000_000 {
		ctx := NewPacketContext()
		if _, err := emu.CurrentTime(ctx, 0, ns); err != nil {
			t.Fatal(err)
		}
	}
	ctx := NewPacketContext()
	got, err := emu.CurrentTime(ctx, 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("port 1 time = %d, want 2", got)
	}
}

func tickParams() core.Params {
	return core.Params{InsTarget: 195, PstTarget: 83, PstInterval: 195}
}

func nsParams() core.Params {
	p := tickParams()
	return core.Params{
		InsTarget:   p.InsTarget << 10,
		PstTarget:   p.PstTarget << 10,
		PstInterval: p.PstInterval << 10,
	}
}

func TestECNSharpP4Census(t *testing.T) {
	p4, err := NewECNSharpP4(128, nsParams(), WrapLT)
	if err != nil {
		t.Fatal(err)
	}
	c := p4.Census()
	// The §4 prototype: 7 match-action tables, <10 entries, 5 32-bit and
	// 2 64-bit register arrays.
	if c.Tables != 7 {
		t.Errorf("tables = %d, want 7", c.Tables)
	}
	if c.TableEntries >= 10 {
		t.Errorf("entries = %d, want <10", c.TableEntries)
	}
	if c.Registers32 != 5 || c.Registers64 != 2 {
		t.Errorf("registers = %d/%d, want 5/2", c.Registers32, c.Registers64)
	}
	if c.RegisterBytes != 128*(5*4+2*8) {
		t.Errorf("register bytes = %d", c.RegisterBytes)
	}
	if len(p4.Tables()) != 7 {
		t.Error("Tables() length")
	}
}

func TestECNSharpP4RejectsBadParams(t *testing.T) {
	if _, err := NewECNSharpP4(1, core.Params{}, WrapLT); err == nil {
		t.Error("zero params accepted")
	}
	// Parameters below clock resolution (sub-tick) must be rejected.
	tiny := core.Params{InsTarget: 100, PstTarget: 50, PstInterval: 100}
	if _, err := NewECNSharpP4(1, tiny, WrapLT); err == nil {
		t.Error("sub-tick params accepted")
	}
}

// TestECNSharpP4EquivalenceProperty drives the constrained dataplane
// program and the reference Algorithm 1 with identical random traces (in
// whole clock ticks) and requires bit-identical decisions, including the
// interval/sqrt(count) schedule realized as a lookup table.
func TestECNSharpP4EquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := core.MustNewECNSharp(tickParams())
		p4, err := NewECNSharpP4(1, nsParams(), WrapLT)
		if err != nil {
			t.Fatal(err)
		}
		nowTicks := uint64(1 << 12)
		for i := 0; i < 2000; i++ {
			nowTicks += uint64(rng.Intn(50) + 1)
			var sojourn uint64
			switch rng.Intn(3) {
			case 0: // below pst_target
				sojourn = uint64(rng.Intn(83))
			case 1: // persistent band
				sojourn = 83 + uint64(rng.Intn(112))
			default: // above ins_target
				sojourn = 196 + uint64(rng.Intn(200))
			}
			want := ref.ShouldMark(sim.Time(nowTicks), sim.Time(sojourn))
			got, err := p4.ProcessPacket(0, nowTicks<<10, sim.Time(sojourn<<10))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Logf("seed %d step %d: p4=%v ref=%v (now=%d sojourn=%d)",
					seed, i, got, want, nowTicks, sojourn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestECNSharpP4EquivalenceAcrossWrap(t *testing.T) {
	// Same equivalence with the trace straddling the 22-bit wrap of the
	// emulated clock. The reference uses the emulated time too (that is
	// what the hardware acts on), reconstructed by ReferenceTimeUS.
	ref := core.MustNewECNSharp(tickParams())
	p4, err := NewECNSharpP4(1, nsParams(), WrapLT)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	start := uint64(4_294_000_000) // ns; wrap at 2^22 ticks = 4_294_967_296 ns
	for ns := start; ns < start+4_000_000; ns += uint64(rng.Intn(3000) + 1024) {
		tick := uint64(ReferenceTimeUS(ns))
		sojourn := uint64(rng.Intn(400))
		want := ref.ShouldMark(sim.Time(tick), sim.Time(sojourn))
		got, err := p4.ProcessPacket(0, ns, sim.Time(sojourn<<10))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("mismatch at ns=%d: p4=%v ref=%v", ns, got, want)
		}
	}
}

func TestECNSharpP4Stats(t *testing.T) {
	p4, err := NewECNSharpP4(2, nsParams(), WrapLT)
	if err != nil {
		t.Fatal(err)
	}
	// Drive port 0 with a sustained over-ins_target sojourn.
	now := uint64(1 << 22)
	for i := 0; i < 50; i++ {
		now += 10 << 10
		if _, err := p4.ProcessPacket(0, now, sim.Time(400<<10)); err != nil {
			t.Fatal(err)
		}
	}
	inst, pst := p4.Stats(0)
	if inst != 50 {
		t.Errorf("instantaneous marks = %d, want 50", inst)
	}
	if pst != 0 {
		t.Errorf("persistent marks counted under instantaneous dominance: %d", pst)
	}
	// Port 1 untouched.
	if i1, p1 := p4.Stats(1); i1 != 0 || p1 != 0 {
		t.Error("per-port stats not isolated")
	}
}

func TestECNSharpP4PersistentEpisode(t *testing.T) {
	p4, err := NewECNSharpP4(1, nsParams(), WrapLT)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(1 << 22)
	marks := 0
	// Sojourn in the persistent band for many intervals.
	for i := 0; i < 3000; i++ {
		now += 2 << 10
		r, err := p4.ProcessPacket(0, now, sim.Time(120<<10))
		if err != nil {
			t.Fatal(err)
		}
		if r == core.MarkPersistent {
			marks++
		}
		if r == core.MarkInstantaneous {
			t.Fatal("instantaneous mark below ins_target")
		}
	}
	if marks == 0 {
		t.Fatal("no persistent marks in a standing queue")
	}
	if marks > 300 {
		t.Errorf("marks = %d/3000; not conservative", marks)
	}
	// Queue drains: episode must end and the mirror reflect idle state.
	if _, err := p4.ProcessPacket(0, now+(2<<10), sim.Time(10<<10)); err != nil {
		t.Fatal(err)
	}
}

// Figure 4 of the paper contrasts two ways of compiling Algorithm 1's
// control flow to Tofino. The direct interpretation (Figure 4a/4b) reads
// a register in one table and conditionally writes it in another — two
// accesses to the same array in one packet pass, which the hardware
// rejects at compile time. The shipped implementation (Figure 4c,
// ECNSharpP4) precomputes branch conditions into metadata so each
// register is touched by exactly one action.
//
// naiveIsPersistentQueueBuildup reproduces the rejected structure at
// runtime: it is IsPersistentQueueBuildups written the obvious way, the
// way Figure 4b structures it. First a table reads first_above_time, then
// a branch decides whether another table must update it; that second
// access fails with the model's double-access error, on exactly the
// branches where the pseudocode needs a second touch, demonstrating why
// the match-action decomposition of Figure 4c (and ECNSharpP4) exists.
func naiveIsPersistentQueueBuildup(ctx *PacketContext, firstAbove *Reg32, port int,
	nowUS, sojournUS, pstTargetUS, pstIntervalUS uint32) (bool, error) {
	// Table read_first_above_time: fetch the register.
	fat, err := firstAbove.Access(ctx, port, func(cur uint32) (uint32, uint32) {
		return cur, cur
	})
	if err != nil {
		return false, fmt.Errorf("tofino: naive control flow: %w", err)
	}

	// Control-flow branches now want to write the same register:
	if sojournUS < pstTargetUS {
		// Table reset_first_above_time — second access, rejected.
		if _, err := firstAbove.Access(ctx, port, func(uint32) (uint32, uint32) {
			return 0, 0
		}); err != nil {
			return false, fmt.Errorf("tofino: naive control flow: %w", err)
		}
		return false, nil
	}
	if fat == 0 {
		// Table add_now_to_first_above_time — second access, rejected.
		if _, err := firstAbove.Access(ctx, port, func(uint32) (uint32, uint32) {
			return nowUS, 0
		}); err != nil {
			return false, fmt.Errorf("tofino: naive control flow: %w", err)
		}
		return false, nil
	}
	return nowUS > fat+pstIntervalUS, nil
}

// TestFigure4NaiveControlFlowRejected reproduces the paper's Figure 4
// finding: the direct interpretation of Algorithm 1 needs a second access
// to first_above_time on the reset and first-above branches, which the
// hardware model rejects — while the only branch with a single access
// (steady above-target state) works.
func TestFigure4NaiveControlFlowRejected(t *testing.T) {
	reg := NewReg32("first_above_time", 1)

	// Branch 1: sojourn below target wants read + reset -> rejected.
	if _, err := naiveIsPersistentQueueBuildup(NewPacketContext(), reg, 0,
		1000, 5, 83, 195); err == nil {
		t.Error("reset branch did not hit the double-access restriction")
	}

	// Branch 2: first packet above target wants read + write(now) -> rejected.
	reg.Poke(0, 0)
	if _, err := naiveIsPersistentQueueBuildup(NewPacketContext(), reg, 0,
		1000, 120, 83, 195); err == nil {
		t.Error("first-above branch did not hit the double-access restriction")
	}

	// Branch 3: already tracking, still above target: one read suffices.
	reg.Poke(0, 700)
	detected, err := naiveIsPersistentQueueBuildup(NewPacketContext(), reg, 0,
		1000, 120, 83, 195)
	if err != nil {
		t.Fatalf("single-access branch failed: %v", err)
	}
	if !detected {
		t.Error("persistent queueing not detected (1000 > 700+195)")
	}

	// The Figure-4c decomposition handles all three situations in one pass.
	p4, err := NewECNSharpP4(1, nsParams(), WrapLT)
	if err != nil {
		t.Fatal(err)
	}
	for _, sojournTicks := range []uint64{5, 120, 120} {
		if _, err := p4.ProcessPacket(0, 1<<22, sim.Time(sojournTicks<<10)); err != nil {
			t.Fatalf("match-action decomposition failed: %v", err)
		}
	}
}
