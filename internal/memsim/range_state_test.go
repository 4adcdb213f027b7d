package memsim

import (
	"fmt"
	"testing"

	"cloversim/internal/machine"
)

// The suites below hold AccessRange to the reference hierarchy in Counts
// AND semantic cache state (tags, dirty bits, each set's recency order)
// over tiny geometries, where a few hundred lines sweep a whole
// hierarchy through fill, conflict and steady state. Their run shapes —
// lengths at the associativity and capacity boundaries, mixed residency,
// dirty private sets, self-evicting runs — are the ones a closed-form
// AccessRange tier once special-cased, and they keep that tier's test
// names; with the tier gone they check AccessRange itself.

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

// TestAnalyticDifferential sweeps randomized tiny geometries x all
// seven access kinds x the boundary run lengths {1, ways-1, ways,
// sets x ways, > cache} per level, each run preceded by a random
// prelude that leaves mixed clean/dirty residency, and asserts
// AccessRange is bit-identical to the reference hierarchy in counts,
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

					if d := differential(spec, pfOn, 2*span, trace, whole); d != "" {
						t.Fatalf("%s pf=%t %v n=%d: %s", spec.Name, pfOn, kind, n, d)
					}
				}
			}
		}
	}
}

// TestAnalyticFallbackReasons checks AccessRange against the reference
// hierarchy, in counts and state, on one run of each irregular shape
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
			trace := append(append([]pattern(nil), tc.setup...), tc.run)
			if d := differential(mk(), tc.pfOn, 0, trace, whole); d != "" {
				t.Fatal(d)
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
// the reference hierarchy, in counts and state — on the tiny geometries
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
		if d := differential(spec, pfOn, 512, trace, whole); d != "" {
			t.Fatalf("seed=%#x pf=%t: %s", seed, pfOn, d)
		}
	})
}
