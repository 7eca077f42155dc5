package aqm

import (
	"testing"

	"ecnsharp/internal/core"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// driveTimes decodes a fuzz byte stream into a deterministic sequence of
// (now, sojourn) observations with strictly increasing time, the contract
// every dequeue-side AQM is driven under.
func driveTimes(data []byte, scale sim.Time) (nows, sojourns []sim.Time) {
	now := sim.Time(1)
	for i := 0; i+1 < len(data); i += 2 {
		now += sim.Time(data[i]+1) * scale / 8
		nows = append(nows, now)
		sojourns = append(sojourns, sim.Time(data[i+1])*scale/16)
	}
	return nows, sojourns
}

// FuzzECNSharpMark drives the ECN♯ state machine with arbitrary sojourn
// traces and checks it never panics, stays deterministic (two instances
// fed the same trace agree mark for mark), and respects the marking
// contract: instantaneous marks exactly when sojourn exceeds ins_target,
// and no mark of any kind below pst_target.
func FuzzECNSharpMark(f *testing.F) {
	f.Add(uint16(100), uint16(20), uint16(50), []byte{10, 200, 10, 200, 10, 200, 10, 0})
	f.Add(uint16(1), uint16(1), uint16(1), []byte{255, 255, 1, 1})
	f.Add(uint16(500), uint16(400), uint16(300), []byte{})
	f.Fuzz(func(t *testing.T, insUs, pstUs, intervalUs uint16, data []byte) {
		params := core.Params{
			InsTarget:   sim.Time(insUs) * sim.Microsecond,
			PstTarget:   sim.Time(pstUs) * sim.Microsecond,
			PstInterval: sim.Time(intervalUs) * sim.Microsecond,
		}
		a, err := NewECNSharp(params)
		if err != nil {
			t.Skip() // invalid configuration rejected up front
		}
		b := MustNewECNSharp(params)
		nows, sojourns := driveTimes(data, sim.Microsecond)
		var marks, inst, pst int
		for i := range nows {
			now, sojourn := nows[i], sojourns[i]
			ma := a.OnDequeue(now, nil, sojourn)
			mb := b.OnDequeue(now, nil, sojourn)
			if ma != mb {
				t.Fatalf("step %d: nondeterministic mark: %v vs %v", i, ma, mb)
			}
			if ma {
				marks++
				switch a.LastMarkKind() {
				case trace.MarkInstantaneous:
					inst++
				case trace.MarkPersistent:
					pst++
				}
			}
			if inst := sojourn > params.InsTarget; ma != inst && inst {
				t.Fatalf("step %d: sojourn %v above ins_target %v not marked", i, sojourn, params.InsTarget)
			}
			if ma && sojourn < params.PstTarget {
				t.Fatalf("step %d: marked with sojourn %v below pst_target %v", i, sojourn, params.PstTarget)
			}
			if st := a.Core().State(); st.MarkingCount < 0 {
				t.Fatalf("step %d: negative marking count", i)
			}
		}
		if inst+pst != marks {
			t.Fatalf("%d marks, %d attributed to a condition (inst %d, pst %d)", marks, inst+pst, inst, pst)
		}
	})
}

// FuzzCoDelMark drives CoDel's control law with arbitrary sojourn traces
// and checks it never panics, stays deterministic across instances, and
// never marks a sojourn below Target.
func FuzzCoDelMark(f *testing.F) {
	f.Add(uint16(50), uint16(200), []byte{10, 255, 10, 255, 10, 255, 10, 0})
	f.Add(uint16(1), uint16(1), []byte{255, 1})
	f.Fuzz(func(t *testing.T, targetUs, intervalUs uint16, data []byte) {
		if targetUs == 0 || intervalUs == 0 {
			t.Skip() // NewCoDel rejects non-positive parameters by panicking
		}
		target := sim.Time(targetUs) * sim.Microsecond
		interval := sim.Time(intervalUs) * sim.Microsecond
		a := NewCoDel(target, interval)
		b := NewCoDel(target, interval)
		nows, sojourns := driveTimes(data, sim.Microsecond)
		for i := range nows {
			ma := a.OnDequeue(nows[i], nil, sojourns[i])
			mb := b.OnDequeue(nows[i], nil, sojourns[i])
			if ma != mb {
				t.Fatalf("step %d: nondeterministic mark: %v vs %v", i, ma, mb)
			}
			if ma && sojourns[i] < target {
				t.Fatalf("step %d: marked with sojourn %v below target %v", i, sojourns[i], target)
			}
		}
	})
}
