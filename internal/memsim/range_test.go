package memsim

import (
	"fmt"
	"testing"

	"cloversim/internal/machine"
)

var allKinds = []AccessKind{AccessLoad, AccessRFO, AccessClaimI2M, AccessClaimL2,
	AccessWriteNT, AccessWriteNTReverted, AccessWriteStreamed}

// diffSpecs are the machine models the differential tests sweep: an ItoM
// machine with the stream prefetcher, one with an adjacent-line
// prefetcher (exercising the buddy fetch), and the A64FX claim-zero CPU.
func diffSpecs() []*machine.Spec {
	adj := machine.ICX8360Y()
	adj.Name = "icx+adj"
	adj.PF.AdjacentEnabled = true
	return []*machine.Spec{machine.ICX8360Y(), adj, machine.A64FX()}
}

// xorshift64* PRNG, deterministic pattern generator for the tests.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// pattern is one (start, n, kind) batch of a random access trace.
type pattern struct {
	start int64
	n     int64
	kind  AccessKind
}

// randomTrace draws batches with run lengths spanning partial sets, full
// sets, and multi-set wraps, over an address span that stresses both
// conflict misses and reuse.
func randomTrace(seed uint64, batches int) []pattern {
	r := &rng{s: seed | 1}
	out := make([]pattern, batches)
	for i := range out {
		out[i] = pattern{
			start: int64(r.next() % (1 << 15)),
			n:     int64(r.next()%200) + 1,
			kind:  allKinds[r.next()%uint64(len(allKinds))],
		}
	}
	return out
}

// replayed is what one replay observed: the counts and semantic state
// after the trace, the dirty-line census, and the post-flush counts
// (catching dirty-state divergence).
type replayed struct {
	mid   Counts
	st    [3]levelState
	dirty int
	final Counts
}

// replay runs a trace on m via run and records what it observed. A
// probe > 0 loads lines 0..probe-1 before the flush, so the post-flush
// counts also depend on every line left resident.
func replay(m model, trace []pattern, run func(model, pattern), probe int64) replayed {
	for _, p := range trace {
		run(m, p)
	}
	out := replayed{mid: m.Counts(), st: m.state(), dirty: m.DirtyLines()}
	m.AccessRange(0, probe, AccessLoad)
	m.Flush()
	out.final = m.Counts()
	return out
}

// whole issues each batch as one AccessRange run.
func whole(m model, p pattern) { m.AccessRange(p.start, p.n, p.kind) }

// differential replays trace on a fresh production hierarchy via run
// and on the reference, and describes the first divergence ("" if
// none).
func differential(spec *machine.Spec, pfOn bool, probe int64, trace []pattern, run func(model, pattern)) string {
	h := New(spec)
	h.SetPrefetch(pfOn)
	got := replay(h, trace, run, probe)
	want := replay(newRefHierarchy(spec, pfOn), trace, whole, probe)
	switch {
	case got.mid != want.mid:
		return fmt.Sprintf("counts diverge\nproduction: %+v\nreference:  %+v", got.mid, want.mid)
	case got.dirty != want.dirty:
		return fmt.Sprintf("dirty lines %d, reference %d", got.dirty, want.dirty)
	case got.final != want.final:
		return fmt.Sprintf("post-flush counts diverge\nproduction: %+v\nreference:  %+v", got.final, want.final)
	}
	if d := diffState(got.st, want.st); d != "" {
		return "state diverges: " + d
	}
	return ""
}

// TestAccessRangeDifferential: AccessRange must yield bit-identical
// Counts, dirty and recency state to the reference hierarchy, across
// random access patterns, prefetch on/off, and every access kind.
func TestAccessRangeDifferential(t *testing.T) {
	for _, spec := range diffSpecs() {
		for _, pfOn := range []bool{true, false} {
			for seed := uint64(1); seed <= 8; seed++ {
				trace := randomTrace(seed*0x9e3779b97f4a7c15, 300)
				if d := differential(spec, pfOn, 0, trace, whole); d != "" {
					t.Fatalf("%s pf=%t seed=%d: %s", spec.Name, pfOn, seed, d)
				}
			}
		}
	}
}

// TestAccessRangePerKind isolates each kind on a long sequential run and
// a short wrap-around run — the two shapes traffic generators emit.
func TestAccessRangePerKind(t *testing.T) {
	spec := machine.ICX8360Y()
	for _, kind := range allKinds {
		for _, pfOn := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/pf=%t", kind, pfOn), func(t *testing.T) {
				trace := []pattern{
					{start: 100, n: 4096, kind: kind},  // long stream
					{start: 100, n: 4096, kind: kind},  // full reuse
					{start: 4000, n: 300, kind: kind},  // overlap
					{start: 1 << 20, n: 1, kind: kind}, // singleton far away
				}
				if d := differential(spec, pfOn, 0, trace, whole); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// TestAccessRangeMixedWithPerLine: a run issued whole and the same run
// issued one line at a time are interchangeable on the SAME hierarchy,
// so callers may split or coalesce runs freely (the store engine
// coalesces its per-line decisions into runs of any length).
func TestAccessRangeMixedWithPerLine(t *testing.T) {
	spec := machine.ICX8360Y()
	trace := randomTrace(0xf00d, 200)
	d := differential(spec, true, 0, trace, func(m model, p pattern) {
		if p.n%2 == 0 {
			m.AccessRange(p.start, p.n, p.kind)
			return
		}
		for line := p.start; line < p.start+p.n; line++ {
			m.AccessRange(line, 1, p.kind)
		}
	})
	if d != "" {
		t.Fatalf("mixed trace: %s", d)
	}
}

// TestAccessRangeEmptyAndNegative: n <= 0 must be a no-op.
func TestAccessRangeEmptyAndNegative(t *testing.T) {
	h := New(machine.ICX8360Y())
	for _, kind := range allKinds {
		h.AccessRange(42, 0, kind)
		h.AccessRange(42, -3, kind)
	}
	if c := h.Counts(); c != (Counts{}) {
		t.Fatalf("empty ranges produced traffic: %+v", c)
	}
}

// FuzzAccessRange fuzzes the differential property — production vs
// the reference hierarchy — over arbitrary (seed, batches, pf)
// triples. The seed corpus covers each access kind, both prefetch
// states, and degenerate lengths.
func FuzzAccessRange(f *testing.F) {
	f.Add(uint64(1), uint8(4), true)
	f.Add(uint64(2), uint8(1), false)
	f.Add(uint64(0x5eed), uint8(16), true)
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(32), false)
	f.Add(uint64(7), uint8(0), true)
	for i, k := range allKinds {
		f.Add(uint64(k)<<8|uint64(i), uint8(8), i%2 == 0)
	}
	spec := machine.ICX8360Y()
	f.Fuzz(func(t *testing.T, seed uint64, batches uint8, pfOn bool) {
		trace := randomTrace(seed, int(batches%64)+1)
		if d := differential(spec, pfOn, 0, trace, whole); d != "" {
			t.Fatalf("seed=%#x pf=%t: %s", seed, pfOn, d)
		}
	})
}
