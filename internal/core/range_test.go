package core

import (
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/memsim"
)

// lineByLine wraps a Hierarchy and splits every run it is handed into
// single-line calls.
type lineByLine struct{ h *memsim.Hierarchy }

func (p lineByLine) AccessRange(start, n int64, kind memsim.AccessKind) {
	for line := start; line < start+n; line++ {
		p.h.AccessRange(line, 1, kind)
	}
}

// storeWorkout drives one engine through the store shapes the traffic
// generators emit: long aligned rows, misaligned partial heads/tails,
// bridged halo gaps, NT streams, and mid-row interleaving across
// streams, with a context switch partway.
func storeWorkout(e *StoreEngine, ctx Context, nt bool) {
	e.Seed(0xd1ce)
	e.ConfigureStreams(3, []bool{nt, false, nt})
	e.SetContext(ctx)
	base := int64(1 << 22)
	for row := int64(0); row < 40; row++ {
		for s := 0; s < 3; s++ {
			addr := base + int64(s)*(1<<20) + row*4096
			// Misalign every third row and leave a bridged hole.
			if row%3 == 1 {
				addr += 24
			}
			e.StoreRange(s, addr, 1800)
			e.StoreRange(s, addr+1984, 2100)
		}
	}
	ctx2 := ctx
	ctx2.Class = machine.ClassPureStore
	e.SetContext(ctx2)
	e.StoreRange(0, base+(1<<21)+8, 64*37+17)
	e.CloseAll()
}

// TestEngineRangeBackendDifferential: a StoreEngine over a Hierarchy
// must produce bit-identical hierarchy Counts to the same engine over
// a wrapper that splits every run into single-line calls — the
// pending-run coalescing may only group calls, never reorder or drop
// them.
func TestEngineRangeBackendDifferential(t *testing.T) {
	for _, name := range machine.Names() {
		spec, _ := machine.ByName(name)
		for _, nt := range []bool{false, true} {
			ctx := Context{
				Pressure:      1,
				NodeFraction:  1,
				ActiveSockets: spec.Sockets,
				Class:         machine.ClassStencil,
				StoreStreams:  3,
				Eligible:      true,
				PFOn:          true,
			}
			hLine := memsim.New(spec)
			eLine := NewStoreEngine(lineByLine{hLine}, spec)
			storeWorkout(eLine, ctx, nt)

			hRange := memsim.New(spec)
			eRange := NewStoreEngine(hRange, spec)
			storeWorkout(eRange, ctx, nt)

			if eLine.Stats() != eRange.Stats() {
				t.Fatalf("%s nt=%t: engine stats diverge: %+v vs %+v",
					name, nt, eRange.Stats(), eLine.Stats())
			}
			if hLine.Counts() != hRange.Counts() {
				t.Fatalf("%s nt=%t: hierarchy counts diverge\nruns:     %+v\nper-line: %+v",
					name, nt, hRange.Counts(), hLine.Counts())
			}
			hLine.Flush()
			hRange.Flush()
			if hLine.Counts() != hRange.Counts() {
				t.Fatalf("%s nt=%t: post-flush counts diverge (dirty state differs)", name, nt)
			}
		}
	}
}
