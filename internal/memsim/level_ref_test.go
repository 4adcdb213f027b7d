package memsim

import (
	"fmt"
	"testing"

	"cloversim/internal/machine"
)

// refLevel is the stamp-per-way LRU model the recency lists replaced,
// kept verbatim as the replacement-order reference: every hit and
// install stamps its way from a per-level clock; the victim is the
// first empty way past way 0, else the way with the smallest stamp.
// Emptied ways keep their stamps; a flush zeroes all stamps and the
// clock.
type refLevel struct {
	ways  int
	mask  int64
	tags  []int64
	dirty []bool
	stamp []uint32
	clock uint32
}

func newRefLevel(sets, ways int) *refLevel {
	r := &refLevel{
		ways:  ways,
		mask:  int64(sets - 1),
		tags:  make([]int64, sets*ways),
		dirty: make([]bool, sets*ways),
		stamp: make([]uint32, sets*ways),
	}
	r.flush()
	return r
}

func (r *refLevel) flush() {
	for i := range r.tags {
		r.tags[i] = -1
		r.dirty[i] = false
		r.stamp[i] = 0
	}
	r.clock = 0
}

func (r *refLevel) lookup(line int64) int {
	set := int(line&r.mask) * r.ways
	for w := 0; w < r.ways; w++ {
		if r.tags[set+w] == line {
			r.clock++
			r.stamp[set+w] = r.clock
			return set + w
		}
	}
	return -1
}

func (r *refLevel) victim(line int64) int {
	set := int(line&r.mask) * r.ways
	best := set
	bestStamp := r.stamp[set]
	for w := 1; w < r.ways; w++ {
		if r.tags[set+w] == -1 {
			return set + w
		}
		if r.stamp[set+w] < bestStamp {
			bestStamp = r.stamp[set+w]
			best = set + w
		}
	}
	return best
}

func (r *refLevel) install(line int64, dirty bool) (slot int, evicted int64, evDirty bool) {
	slot = r.victim(line)
	evicted, evDirty = r.tags[slot], r.dirty[slot]
	r.tags[slot] = line
	r.dirty[slot] = dirty
	r.clock++
	r.stamp[slot] = r.clock
	return slot, evicted, evDirty
}

func (r *refLevel) drop(slot int) {
	r.tags[slot] = -1
	r.dirty[slot] = false
}

// refGeom is one cache geometry of a machine preset.
type refGeom struct {
	name string
	g    machine.CacheGeom
}

// refGeoms lists every preset's L1, L2 and L3-slice geometry.
func refGeoms() []refGeom {
	var out []refGeom
	for _, s := range machine.AllPresets() {
		out = append(out,
			refGeom{s.Name + "/L1", s.L1},
			refGeom{s.Name + "/L2", s.L2},
			refGeom{s.Name + "/L3slice", s.L3Slice()})
	}
	return out
}

// Lockstep ops, one per program byte pair (op, arg). arg picks the line:
// its low 2 bits one of four sets, the rest a tag from a pool of 1.5x
// the associativity, so sets overflow, reuse and self-evict.
const (
	opLookup     = iota // one of the four lookup variants
	opAccess            // lookup; on a miss install clean
	opAccessDirt        // lookup; on a hit mark dirty, on a miss install dirty
	opClaim             // lookup; on a hit empty the way
	opFlush
	opCount
)

// lockstep drives a level and the reference model through ops and
// fails at the first step where they disagree on a hit, a slot, a
// victim, or an evicted line and its dirty bit.
func lockstep(t *testing.T, name string, g machine.CacheGeom, ops []byte) {
	t.Helper()
	l := newLevel(g)
	r := newRefLevel(l.sets, l.ways)
	pool := int64(l.ways + l.ways/2 + 1)
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		line := (int64(arg>>2)%pool)*int64(l.sets) + int64(arg&3)%int64(l.sets)
		fail := func(format string, a ...any) {
			t.Helper()
			t.Fatalf("%s step %d (op %d line %d): %s", name, i/2, op%opCount, line, fmt.Sprintf(format, a...))
		}
		if op%opCount == opFlush {
			l.reset()
			r.flush()
			continue
		}
		want := r.lookup(line)
		var got int
		switch op % opCount {
		case opLookup:
			switch (op / opCount) % 4 {
			case 0:
				got, _ = l.lookup(line)
			case 1:
				got, _ = l.lookupWB(line)
			case 2:
				got, _ = l.lookupScan(line)
			case 3:
				got, _ = l.probe(line)
			}
		default:
			got, _ = l.lookup(line)
		}
		if got != want {
			fail("lookup slot %d, reference %d", got, want)
		}
		switch op % opCount {
		case opAccess, opAccessDirt:
			dirty := op%opCount == opAccessDirt
			if want >= 0 {
				if dirty {
					l.markDirty(line, got)
					r.dirty[want] = true
				}
				continue
			}
			si := int(line & l.mask)
			vslot := si*l.ways + l.victim(si)
			rslot, rev, rd := r.install(line, dirty)
			if vslot != rslot {
				fail("victim slot %d, reference %d", vslot, rslot)
			}
			ev, d := l.install(line, dirty)
			if ev != rev || d != rd {
				fail("evicted (%d, dirty %t), reference (%d, dirty %t)", ev, d, rev, rd)
			}
		case opClaim:
			if want >= 0 {
				l.drop(line, got)
				r.drop(want)
			}
		}
	}
	for i := range r.tags {
		d := l.set[i/l.ways].dirty>>(i%l.ways)&1 != 0
		if l.tags[i] != r.tags[i] || d != r.dirty[i] {
			t.Fatalf("%s: final slot %d holds (%d, dirty %t), reference (%d, dirty %t)",
				name, i, l.tags[i], d, r.tags[i], r.dirty[i])
		}
	}
}

// randomOps draws n lockstep op pairs. claimEvery > 0 forces every
// claimEvery-th op to a claim, for claim-heavy traces; flushes stay
// rare so sets reach steady state between them.
func randomOps(seed uint64, n, claimEvery int) []byte {
	rg := &rng{s: seed | 1}
	ops := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		x := rg.next()
		op := byte(x % 251)
		switch {
		case op%opCount == opFlush && x>>32%16 != 0:
			op = opAccess
		case claimEvery > 0 && i%claimEvery == 0:
			op = opClaim
		}
		ops[2*i], ops[2*i+1] = op, byte(x>>8)
	}
	return ops
}

// TestLevelReference: the recency-list level reproduces the stamp
// model's replacement order step for step on every preset geometry,
// through random lookup, install, claim-drop and flush sequences.
func TestLevelReference(t *testing.T) {
	for _, rg := range refGeoms() {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, claimEvery := range []int{0, 2, 5} {
				ops := randomOps(seed*0x9e3779b97f4a7c15+uint64(claimEvery), 3000, claimEvery)
				lockstep(t, fmt.Sprintf("%s seed=%d claim/%d", rg.name, seed, claimEvery), rg.g, ops)
			}
		}
	}
}

// FuzzLevelReference fuzzes the lockstep property over arbitrary op
// programs on any preset geometry. The seed corpus holds plain, claim-
// heavy and flush-interleaved traces.
func FuzzLevelReference(f *testing.F) {
	geoms := refGeoms()
	for i := range geoms {
		f.Add(uint8(i), randomOps(uint64(i)+1, 400, 0))
		f.Add(uint8(i), randomOps(uint64(i)+101, 400, 2))
	}
	// Fill one set, claim all of it, refill: every way empties in turn.
	var prog []byte
	for round := 0; round < 3; round++ {
		for tag := byte(0); tag < 24; tag++ {
			prog = append(prog, opAccessDirt, tag<<2)
		}
		for tag := byte(0); tag < 24; tag++ {
			prog = append(prog, opClaim, tag<<2)
		}
		prog = append(prog, opFlush, 0)
	}
	f.Add(uint8(0), prog)
	f.Fuzz(func(t *testing.T, gi uint8, ops []byte) {
		rg := geoms[int(gi)%len(geoms)]
		lockstep(t, rg.name, rg.g, ops)
	})
}

// fillSet installs n distinct lines into set 0 and returns them with
// the way each landed in.
func fillSet(l *level, firstTag, n int) (lines []int64, ways []int) {
	for i := 0; i < n; i++ {
		line := int64(firstTag+i) * int64(l.sets)
		w := l.victim(0)
		l.install(line, false)
		if l.tags[w] != line {
			panic("install missed the victim way")
		}
		lines = append(lines, line)
		ways = append(ways, w)
	}
	return lines, ways
}

// TestLevelFillOrderAfterFlush: after Flush a set fills ways 1..W-1,
// then way 0, on every preset geometry.
func TestLevelFillOrderAfterFlush(t *testing.T) {
	for _, s := range machine.AllPresets() {
		h := New(s)
		for i := int64(0); i < 4096; i++ {
			h.AccessRange(i*7, 1, AccessRFO)
		}
		h.Flush()
		for _, l := range []*level{h.l1, h.l2, h.l3} {
			_, ways := fillSet(l, 0, l.ways)
			for i, w := range ways {
				if want := (i + 1) % l.ways; w != want {
					t.Fatalf("%s %d-way: fill %d took way %d, want %d", s.Name, l.ways, i, w, want)
				}
			}
		}
	}
}

// TestLevelClaimedWayRefilledFirst: a way above 0 that a claim emptied
// is refilled before the LRU way, even though it is the most recent.
func TestLevelClaimedWayRefilledFirst(t *testing.T) {
	l := newLevel(machine.ICX8360Y().L1)
	lines, ways := fillSet(l, 0, l.ways)
	const k = 5
	slot, _ := l.lookupScan(lines[k]) // claims look the line up, then drop it
	l.drop(lines[k], slot)
	if w := l.victim(0); w != ways[k] {
		t.Fatalf("victim way %d, want the claimed way %d", w, ways[k])
	}
	_, refill := fillSet(l, l.ways, 2)
	if refill[0] != ways[k] {
		t.Fatalf("refill took way %d, want the claimed way %d", refill[0], ways[k])
	}
	if refill[1] != ways[0] {
		t.Fatalf("next fill took way %d, want the LRU way %d", refill[1], ways[0])
	}
}

// TestLevelClaimedWay0ChosenWhenLRU: an emptied way 0 is not preferred
// like the other ways; it is refilled only once it is least recent.
func TestLevelClaimedWay0ChosenWhenLRU(t *testing.T) {
	l := newLevel(machine.ICX8360Y().L1)
	lines, ways := fillSet(l, 0, l.ways) // ways 1..W-1, then 0
	if ways[len(ways)-1] != 0 {
		t.Fatalf("last fill took way %d, want 0", ways[len(ways)-1])
	}
	last := lines[len(lines)-1]
	slot, _ := l.lookupScan(last)
	l.drop(last, slot)
	// Way 0 is empty but most recent: the W-1 older ways go first.
	_, refill := fillSet(l, l.ways, l.ways)
	for i, w := range refill[:l.ways-1] {
		if w != i+1 {
			t.Fatalf("fill %d took way %d, want LRU way %d", i, w, i+1)
		}
	}
	if w := refill[l.ways-1]; w != 0 {
		t.Fatalf("fill %d took way %d, want the now least recent way 0", l.ways-1, w)
	}
}

// TestNewRejectsTooManyWays: geometries past machine.MaxWays, which
// Validate rejects, also fail loudly in New.
func TestNewRejectsTooManyWays(t *testing.T) {
	s := machine.ICX8360Y()
	s.L2 = machine.CacheGeom{SizeBytes: 65 * 64 * 16, Ways: 65, LineBytes: 64}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 65-way level")
		}
	}()
	New(s)
}
