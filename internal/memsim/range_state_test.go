package memsim

import (
	"fmt"
	"testing"

	"cloversim/internal/machine"
)

// The suites below hold AccessRange to the per-line reference in Counts
// AND semantic cache state (tags, dirty bits, each set's recency order)
// over tiny geometries, where a few hundred lines sweep a whole
// hierarchy through fill, conflict and steady state. Their run shapes —
// lengths at the associativity and capacity boundaries, mixed residency,
// dirty private sets, self-evicting runs — are the ones a closed-form
// AccessRange tier once special-cased, and they keep that tier's test
// names; with the tier gone they check the batched path alone.

// tinySpec builds a machine spec whose memsim hierarchy has exactly the
// given per-level sets x ways (sets must be powers of two — newLevel
// rounds down otherwise and the test would lie about its geometry).
func tinySpec(l1s, l1w, l2s, l2w, l3s, l3w int) *machine.Spec {
	s := machine.ICX8360Y()
	s.Name = fmt.Sprintf("tiny-%dx%d-%dx%d-%dx%d", l1s, l1w, l2s, l2w, l3s, l3w)
	s.L1 = machine.CacheGeom{SizeBytes: l1s * l1w * 64, Ways: l1w, LineBytes: 64}
	s.L2 = machine.CacheGeom{SizeBytes: l2s * l2w * 64, Ways: l2w, LineBytes: 64}
	s.L3 = machine.CacheGeom{SizeBytes: l3s * l3w * 64 * s.CoresPerSocket, Ways: l3w, LineBytes: 64}
	s.L3SliceWays = l3w
	return s
}

// levelState is one level's semantic state: everything the replacement
// and write-back policies read. order lists each set's ways from MRU to
// LRU. The search-acceleration state (filt, pred) is deliberately
// excluded — it is allowed to diverge.
type levelState struct {
	tags  []int64
	dirty []bool
	order []uint8
}

func captureState(h *Hierarchy) [3]levelState {
	var out [3]levelState
	for i, l := range []*level{h.l1, h.l2, h.l3} {
		st := levelState{
			tags:  append([]int64(nil), l.tags...),
			dirty: make([]bool, len(l.tags)),
			order: make([]uint8, 0, len(l.tags)),
		}
		for si := range l.set {
			s, base := l.set[si], si*l.ways
			for w := 0; w < l.ways; w++ {
				st.dirty[base+w] = s.dirty&(1<<uint(w)) != 0
			}
			w := s.mru
			for k := 0; k < l.ways; k++ {
				st.order = append(st.order, w)
				w = l.link[base+int(w)].older
			}
		}
		out[i] = st
	}
	return out
}

// diffState returns "" when equal, else a description of the first
// diverging level.
func diffState(got, want [3]levelState) string {
	names := [3]string{"L1", "L2", "L3"}
	for i := range got {
		for s := range got[i].tags {
			if got[i].tags[s] != want[i].tags[s] || got[i].dirty[s] != want[i].dirty[s] {
				return fmt.Sprintf("%s slot %d: got tag=%d dirty=%t, want tag=%d dirty=%t",
					names[i], s, got[i].tags[s], got[i].dirty[s], want[i].tags[s], want[i].dirty[s])
			}
		}
		for k := range got[i].order {
			if got[i].order[k] != want[i].order[k] {
				return fmt.Sprintf("%s recency position %d: got way %d, want way %d",
					names[i], k, got[i].order[k], want[i].order[k])
			}
		}
	}
	return ""
}

// replayFull runs a trace, captures counts + semantic state, then
// probes the residual state through the public per-line API (a load
// sweep whose hit/miss pattern depends on every resident line) and
// flushes (whose write-back count depends on every dirty bit).
func replayFull(spec *machine.Spec, pfOn bool, probe int64, trace []pattern,
	usePerLine bool) (mid Counts, st [3]levelState, fin Counts) {
	h := New(spec)
	h.SetPrefetch(pfOn)
	for _, p := range trace {
		if usePerLine {
			perLine(h, p.start, p.n, p.kind)
		} else {
			h.AccessRange(p.start, p.n, p.kind)
		}
	}
	mid, st = h.Counts(), captureState(h)
	for line := int64(0); line < probe; line++ {
		h.Load(line)
	}
	h.Flush()
	return mid, st, h.Counts()
}

// TestAnalyticDifferential sweeps randomized tiny geometries x all
// seven access kinds x the boundary run lengths {1, ways-1, ways,
// sets x ways, > cache} per level, each run preceded by a random
// prelude that leaves mixed clean/dirty residency, and asserts
// AccessRange is bit-identical to the per-line reference in counts,
// semantic state, and post-probe behaviour.
func TestAnalyticDifferential(t *testing.T) {
	r := &rng{s: 0xA11A}
	for g := 0; g < 6; g++ {
		l1s, l1w := 1<<(r.next()%3), int(r.next()%4)+1
		l2s, l2w := 1<<(r.next()%3+1), int(r.next()%6)+1
		l3s, l3w := 1<<(r.next()%4+1), int(r.next()%8)+1
		spec := tinySpec(l1s, l1w, l2s, l2w, l3s, l3w)
		cache := int64(l1s*l1w + l2s*l2w + l3s*l3w)
		lens := []int64{1, int64(l1w) - 1, int64(l1w), int64(l1s * l1w),
			int64(l2s * l2w), int64(l3s * l3w), cache, 2*cache + 7}
		span := int64(256)
		for _, pfOn := range []bool{true, false} {
			for _, kind := range allKinds {
				for _, n := range lens {
					if n <= 0 {
						continue
					}
					trace := make([]pattern, 0, 18)
					for i := 0; i < 16; i++ {
						trace = append(trace, pattern{
							start: int64(r.next() % uint64(span)),
							n:     int64(r.next()%24) + 1,
							kind:  allKinds[r.next()%uint64(len(allKinds))],
						})
					}
					// One run in dirtied territory, one far away on
					// clean sets.
					trace = append(trace,
						pattern{start: int64(r.next() % uint64(span)), n: n, kind: kind},
						pattern{start: 4 * span, n: n, kind: kind})

					wm, ws, wf := replayFull(spec, pfOn, 2*span, trace, true)
					gm, gs, gf := replayFull(spec, pfOn, 2*span, trace, false)
					if gm != wm {
						t.Fatalf("%s pf=%t %v n=%d: counts diverge\nbatched: %+v\nper-line: %+v",
							spec.Name, pfOn, kind, n, gm, wm)
					}
					if d := diffState(gs, ws); d != "" {
						t.Fatalf("%s pf=%t %v n=%d: state diverges: %s", spec.Name, pfOn, kind, n, d)
					}
					if gf != wf {
						t.Fatalf("%s pf=%t %v n=%d: post-probe counts diverge\nbatched: %+v\nper-line: %+v",
							spec.Name, pfOn, kind, n, gf, wf)
					}
				}
			}
		}
	}
}

// TestAnalyticFallbackReasons checks AccessRange against the per-line
// reference, in counts and state, on one run of each irregular shape
// (prefetch on, a short run, mixed residency, a dirty private set, runs
// that evict their own lines from L1 or L2) and of each regular one.
func TestAnalyticFallbackReasons(t *testing.T) {
	// L1 2 sets x 2 ways, L2 4x2, L3 4x4: 28 lines total.
	mk := func() *machine.Spec { return tinySpec(2, 2, 4, 2, 4, 4) }
	cases := []struct {
		name  string
		pfOn  bool
		setup []pattern
		run   pattern
	}{
		{name: "load-prefetch-on", pfOn: true, run: pattern{0, 64, AccessLoad}},
		{name: "auto-short-run", run: pattern{0, 8, AccessLoad}},
		{name: "mixed-residency", setup: []pattern{{0, 64, AccessLoad}},
			run: pattern{32, 64, AccessLoad}},
		{name: "dirty-private-set", setup: []pattern{{0, 1, AccessRFO}},
			run: pattern{64, 64, AccessLoad}},
		{name: "rfo-l1-self-evict", run: pattern{0, 5, AccessRFO}},
		{name: "claiml2-l2-self-evict", run: pattern{0, 9, AccessClaimL2}},
		{name: "load-regular", run: pattern{0, 64, AccessLoad}},
		{name: "load-auto-long", run: pattern{0, 28, AccessLoad}},
		{name: "rfo-regular", run: pattern{0, 4, AccessRFO}},
		{name: "ntreverted-regular", run: pattern{0, 4, AccessWriteNTReverted}},
		{name: "claimi2m-regular", run: pattern{0, 64, AccessClaimI2M}},
		{name: "claimi2m-l3-resident-ok", setup: []pattern{{0, 64, AccessClaimI2M}},
			run: pattern{48, 32, AccessClaimI2M}},
		{name: "claiml2-regular", run: pattern{0, 8, AccessClaimL2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(per bool) *Hierarchy {
				h := New(mk())
				h.SetPrefetch(tc.pfOn)
				for _, p := range tc.setup {
					h.AccessRange(p.start, p.n, p.kind)
				}
				if per {
					perLine(h, tc.run.start, tc.run.n, tc.run.kind)
				} else {
					h.AccessRange(tc.run.start, tc.run.n, tc.run.kind)
				}
				return h
			}
			h, ref := run(false), run(true)
			if g, w := h.Counts(), ref.Counts(); g != w {
				t.Fatalf("counts diverge from per-line: %+v vs %+v", g, w)
			}
			if d := diffState(captureState(h), captureState(ref)); d != "" {
				t.Fatalf("state diverges from per-line: %s", d)
			}
		})
	}
}

// fuzzGeoms are the hierarchies FuzzAnalyticRange rotates through:
// tiny enough that every batch sweeps whole levels, shaped to hit
// direct-mapped, single-set and skewed-associativity corners.
var fuzzGeoms = [4][6]int{
	{2, 2, 4, 2, 4, 4},
	{1, 3, 2, 4, 8, 2},
	{4, 1, 4, 6, 2, 8},
	{2, 4, 8, 1, 16, 3},
}

// analyticTrace draws batches biased toward the boundary shapes: long
// runs over whole levels, ways+-1 and sets x ways lengths, aliasing
// wraps through a small span, and kind switches mid-stream.
func analyticTrace(seed uint64, batches int, l1w, cache int64) []pattern {
	r := &rng{s: seed | 1}
	out := make([]pattern, batches)
	for i := range out {
		p := pattern{kind: allKinds[r.next()%uint64(len(allKinds))]}
		switch r.next() % 4 {
		case 0: // long run, usually on fresh sets
			p.start = int64(r.next() % (1 << 12))
			p.n = cache + int64(r.next()%uint64(2*cache))
		case 1: // boundary lengths around the associativity
			p.start = int64(r.next() % 64)
			p.n = l1w + int64(r.next()%5) - 2
		case 2: // aliasing wraps inside one small span
			p.start = int64(r.next() % 32)
			p.n = int64(r.next()%uint64(2*cache)) + 1
		default: // short scattered churn
			p.start = int64(r.next() % (1 << 12))
			p.n = int64(r.next()%24) + 1
		}
		if p.n <= 0 {
			p.n = 1
		}
		out[i] = p
	}
	return out
}

// FuzzAnalyticRange fuzzes the differential property — AccessRange vs
// the per-line reference, in counts and state — on the tiny geometries
// over traces of boundary-shaped runs. The committed corpus under
// testdata/fuzz seeds the aliasing, direct-mapped, ways-boundary and
// kind-switch cases.
func FuzzAnalyticRange(f *testing.F) {
	f.Add(uint64(1), uint8(8), false)
	f.Add(uint64(0x5eed), uint8(24), true)
	f.Add(uint64(0xA11A), uint8(40), false)
	for i := range fuzzGeoms {
		f.Add(uint64(i), uint8(16), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, batches uint8, pfOn bool) {
		g := fuzzGeoms[seed%uint64(len(fuzzGeoms))]
		spec := tinySpec(g[0], g[1], g[2], g[3], g[4], g[5])
		cache := int64(g[0]*g[1] + g[2]*g[3] + g[4]*g[5])
		trace := analyticTrace(seed, int(batches%48)+1, int64(g[1]), cache)
		wm, ws, wf := replayFull(spec, pfOn, 512, trace, true)
		gm, gs, gf := replayFull(spec, pfOn, 512, trace, false)
		if gm != wm || gf != wf {
			t.Fatalf("seed=%#x pf=%t: counts diverge\nbatched mid %+v fin %+v\nper-line mid %+v fin %+v",
				seed, pfOn, gm, gf, wm, wf)
		}
		if d := diffState(gs, ws); d != "" {
			t.Fatalf("seed=%#x pf=%t: state diverges: %s", seed, pfOn, d)
		}
	})
}
