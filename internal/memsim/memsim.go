// Package memsim provides a cache-line-accurate simulation of one core's
// view of the memory hierarchy: private L1 and L2 caches, a per-core L3
// slice, hardware prefetcher models, and a memory controller that counts
// read and write cache-line transfers (the CAS_COUNT_RD / CAS_COUNT_WR
// analogue of the paper's LIKWID measurements).
//
// The hierarchy is write-back, write-allocate with LRU replacement.
// Layer conditions (Sec. II-C), partial-line write-allocates and prefetch
// overfetch are emergent properties of the simulation, not parameters.
//
// Hierarchy implements core.Backend, so the SpecI2M store engine of
// internal/core drives it directly.
//
// AccessRange (range.go) is the one way into the hierarchy: every
// caller, per-line or batched, issues runs of one access kind. One
// replacement model serves it: each set keeps an exact recency list, so
// hits, installs and victim choice are O(1) beyond the tag scan, and
// way prediction and presence filters shorten the scans. The tests hold
// it bit-identical to an independent reference hierarchy built on a
// stamp-per-way LRU model (ref_hierarchy_test.go, level_ref_test.go).
package memsim

import (
	"fmt"
	"math/bits"

	"cloversim/internal/machine"
)

// Counts is a snapshot of the memory-controller and hierarchy event
// counters. All volumes are in cache lines; multiply by 64 for bytes.
type Counts struct {
	MemReadLines  int64 // lines read from memory (demand + RFO + prefetch)
	MemWriteLines int64 // lines written to memory (write-backs + NT)
	ItoMLines     int64 // SpecI2M claims (TOR_INSERTS_IA_ITOM analogue)
	NTLines       int64 // non-temporal full/partial line writes
	NTReverted    int64 // NT stores reverted to regular write-allocates
	WSLines       int64 // ARM write-streaming direct writes
	PFLines       int64 // memory reads initiated by the prefetcher
	L1Hits        int64
	L2Hits        int64
	L3Hits        int64
	Loads         int64 // demand load accesses
	RFOs          int64 // write-allocate accesses
}

// Sub returns c - o, counter-wise.
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		MemReadLines:  c.MemReadLines - o.MemReadLines,
		MemWriteLines: c.MemWriteLines - o.MemWriteLines,
		ItoMLines:     c.ItoMLines - o.ItoMLines,
		NTLines:       c.NTLines - o.NTLines,
		NTReverted:    c.NTReverted - o.NTReverted,
		WSLines:       c.WSLines - o.WSLines,
		PFLines:       c.PFLines - o.PFLines,
		L1Hits:        c.L1Hits - o.L1Hits,
		L2Hits:        c.L2Hits - o.L2Hits,
		L3Hits:        c.L3Hits - o.L3Hits,
		Loads:         c.Loads - o.Loads,
		RFOs:          c.RFOs - o.RFOs,
	}
}

// Add returns c + o, counter-wise.
func (c Counts) Add(o Counts) Counts {
	return Counts{
		MemReadLines:  c.MemReadLines + o.MemReadLines,
		MemWriteLines: c.MemWriteLines + o.MemWriteLines,
		ItoMLines:     c.ItoMLines + o.ItoMLines,
		NTLines:       c.NTLines + o.NTLines,
		NTReverted:    c.NTReverted + o.NTReverted,
		WSLines:       c.WSLines + o.WSLines,
		PFLines:       c.PFLines + o.PFLines,
		L1Hits:        c.L1Hits + o.L1Hits,
		L2Hits:        c.L2Hits + o.L2Hits,
		L3Hits:        c.L3Hits + o.L3Hits,
		Loads:         c.Loads + o.Loads,
		RFOs:          c.RFOs + o.RFOs,
	}
}

// ReadBytes returns the memory read volume in bytes.
func (c Counts) ReadBytes() int64 { return c.MemReadLines * 64 }

// WriteBytes returns the memory write volume in bytes.
func (c Counts) WriteBytes() int64 { return c.MemWriteLines * 64 }

// TotalBytes returns the total memory data volume in bytes.
func (c Counts) TotalBytes() int64 { return (c.MemReadLines + c.MemWriteLines) * 64 }

// level is one set-associative, write-back, LRU cache level.
//
// Replacement is exact LRU kept as a recency list per set: the ways
// are doubly linked through link (indexed by slot, like tags) between
// the set's MRU and LRU ends. Every hit and every install moves its way
// to the MRU end. The victim is the lowest empty way above way 0 if
// there is one, else the LRU end — O(1) either way. The claims empty a
// way without moving it, so an emptied way 0 is refilled only once it
// is least recent.
type level struct {
	sets  int
	ways  int
	mask  int64 // sets-1 (sets is a power of two)
	shift uint  // log2(sets), for the presence-filter tag hash
	tags  []int64
	link  []link
	set   []setState
	// link0 is link as reset leaves it, set0 every entry of set.
	link0 []link
	set0  setState
	// pred and predWB are the way indices of the most recent demand and
	// write-back hits — pure search-order hints (sequential streams hit
	// the same way across consecutive sets), never semantic state. The
	// write-back stream gets its own slot so the two interleaved
	// streams do not thrash one predictor.
	pred   int
	predWB int
}

// link is one way's neighbours in its set's recency list.
type link struct{ newer, older uint8 }

// setState is one set's recency-list ends, empty and dirty ways, and
// presence filter.
type setState struct {
	// empty has bit w set iff way w holds no line; dirty has bit w set
	// iff way w holds a modified line.
	empty, dirty uint64
	// filt is the OR of 1<<(tag>>shift & 63) over (a superset of) the
	// set's resident tags. A clear bit proves a line absent, letting
	// lookups skip miss scans entirely; evictions leave stale bits (false
	// positives) that the miss scans rebuild away.
	// Like the predictors this is pure search acceleration, never
	// semantic state.
	filt     uint64
	mru, lru uint8
}

// bit returns the presence-filter bit of a line: hashed from the bits
// above the set index, which advance once per sweep through the sets
// (the low bits are the set index itself and would alias every resident
// tag of a set onto one filter bit).
func (l *level) bit(line int64) uint64 {
	return 1 << (uint64(line>>l.shift) & 63)
}

func newLevel(g machine.CacheGeom) *level {
	if g.Ways <= 0 || g.Ways > machine.MaxWays {
		panic(fmt.Sprintf("memsim: %d ways outside 1..%d", g.Ways, machine.MaxWays))
	}
	sets := g.Sets()
	if sets&(sets-1) != 0 {
		// Round down to a power of two; keeps indexing cheap and is
		// within a few percent of the modeled capacity.
		p := 1
		for p*2 <= sets {
			p *= 2
		}
		sets = p
	}
	l := &level{
		sets:  sets,
		ways:  g.Ways,
		mask:  int64(sets - 1),
		shift: uint(bits.TrailingZeros(uint(sets))),
		tags:  make([]int64, sets*g.Ways),
		link:  make([]link, sets*g.Ways),
		set:   make([]setState, sets),
		link0: make([]link, sets*g.Ways),
		set0:  setState{empty: ^uint64(0) >> (64 - g.Ways), mru: uint8(g.Ways - 1)},
	}
	for i := range l.link0 {
		// The ends' outward links are never read.
		w := i % g.Ways
		l.link0[i] = link{newer: uint8(w + 1), older: uint8(w - 1)}
	}
	l.reset()
	return l
}

// reset empties every way and rebuilds each recency list with way 0
// least recent and way W-1 most recent, so the fills that follow take
// ways 1..W-1 (empty ways first), then way 0. It returns the number of
// dirty lines dropped. The per-slot state is block-copied from
// templates: Flush runs after every simulated loop.
func (l *level) reset() (dirty int64) {
	for i := range l.set {
		dirty += int64(bits.OnesCount64(l.set[i].dirty))
		l.set[i] = l.set0
	}
	for i := 0; i < len(l.tags); i += len(noTags) {
		copy(l.tags[i:], noTags[:])
	}
	copy(l.link, l.link0)
	return dirty
}

// noTags is a block of empty tags for reset to copy from.
var noTags = func() (b [1024]int64) {
	for i := range b {
		b[i] = -1
	}
	return b
}()

// touch moves way w of set si (slots from base) to the MRU end.
func (l *level) touch(si, base, w int) {
	s := &l.set[si]
	if int(s.mru) == w {
		return
	}
	lk := l.link[base : base+l.ways : base+l.ways]
	newer, older := lk[w].newer, lk[w].older
	if int(s.lru) == w {
		s.lru = newer
	} else {
		lk[older].newer = newer
	}
	lk[newer].older = older
	lk[w].older = s.mru
	lk[s.mru].newer = uint8(w)
	s.mru = uint8(w)
}

// victim returns the way to fill in set si: the first empty way past
// way 0, else the LRU way.
func (l *level) victim(si int) int {
	s := &l.set[si]
	if e := s.empty &^ 1; e != 0 {
		return bits.TrailingZeros64(e)
	}
	return int(s.lru)
}

// install places a line (possibly dirty) into its set's victim way,
// returning the evicted line and whether it was dirty (evicted == -1 if
// the way was empty). The line must be absent from the level. The
// presence filter picks up the new tag here.
func (l *level) install(line int64, dirty bool) (evicted int64, evDirty bool) {
	si := int(line & l.mask)
	w := l.victim(si)
	set := si * l.ways
	slot := set + w
	s := &l.set[si]
	bit := uint64(1) << uint(w)
	evicted, evDirty = l.tags[slot], s.dirty&bit != 0
	l.tags[slot] = line
	if dirty {
		s.dirty |= bit
	} else {
		s.dirty &^= bit
	}
	s.empty &^= bit
	s.filt |= l.bit(line)
	l.touch(si, set, w)
	return evicted, evDirty
}

// drop empties the slot holding line (a claim moving the line's
// ownership elsewhere) without moving it in the recency list.
func (l *level) drop(line int64, slot int) {
	si := int(line & l.mask)
	bit := uint64(1) << uint(slot-si*l.ways)
	l.tags[slot] = -1
	l.set[si].empty |= bit
	l.set[si].dirty &^= bit
}

// markDirty marks the slot holding line modified.
func (l *level) markDirty(line int64, slot int) {
	si := int(line & l.mask)
	l.set[si].dirty |= 1 << uint(slot-si*l.ways)
}

// lookup probes for a line; on hit it refreshes LRU and returns the
// way slot index. The hit is detected by a predicted-way compare —
// lines of one sequential stream land on the same way across
// consecutive sets — before the presence filter and the unrolled tag
// scan. Since a line is installed only after a miss confirmed its
// absence, tags are unique per set and the predicted-way shortcut
// cannot change which slot a hit resolves to.
func (l *level) lookup(line int64) (int, bool) {
	return l.lookupPred(line, &l.pred)
}

// lookupWB is lookup on the write-back predictor slot: dirty
// evictions of a sequential stream are themselves sequential, but lag
// the demand stream, so they predict well only with their own slot.
func (l *level) lookupWB(line int64) (int, bool) {
	return l.lookupPred(line, &l.predWB)
}

// lookupPred is lookup on the predictor slot pred.
func (l *level) lookupPred(line int64, pred *int) (int, bool) {
	si := int(line & l.mask)
	set := si * l.ways
	tags := l.tags[set : set+l.ways : set+l.ways]
	if p := *pred; p < len(tags) && tags[p] == line {
		l.touch(si, set, p)
		return set + p, true
	}
	if l.set[si].filt&l.bit(line) == 0 {
		return -1, false
	}
	if w := scanTags(tags, line); w >= 0 {
		*pred = w
		l.touch(si, set, w)
		return set + w, true
	}
	l.rebuild(si, tags)
	return -1, false
}

// lookupScan is lookup without the way prediction, for probes off
// the sequential demand stream (prefetch candidates) whose interleaved
// way patterns would only thrash the predictors. Candidate lines are
// usually absent everywhere, so the filter skip carries this path.
func (l *level) lookupScan(line int64) (int, bool) {
	si := int(line & l.mask)
	if l.set[si].filt&l.bit(line) == 0 {
		return -1, false
	}
	set := si * l.ways
	tags := l.tags[set : set+l.ways : set+l.ways]
	if w := scanTags(tags, line); w >= 0 {
		l.touch(si, set, w)
		return set + w, true
	}
	l.rebuild(si, tags)
	return -1, false
}

// probe is lookup without the presence filter, for L1: its few
// sets saturate any filter, so the filter check and its rebuilds would
// only cost. The L1 filter is refreshed only by install accumulation and
// Flush resets.
func (l *level) probe(line int64) (int, bool) {
	si := int(line & l.mask)
	set := si * l.ways
	tags := l.tags[set : set+l.ways : set+l.ways]
	if p := l.pred; p < len(tags) && tags[p] == line {
		l.touch(si, set, p)
		return set + p, true
	}
	if w := scanTags(tags, line); w >= 0 {
		l.pred = w
		l.touch(si, set, w)
		return set + w, true
	}
	return -1, false
}

// scanTags returns the way holding line, or -1 (tag-only scan, unrolled
// to keep branch overhead off the per-access critical path).
func scanTags(tags []int64, line int64) int {
	w := 0
	for ; w+4 <= len(tags); w += 4 {
		if tags[w] == line {
			return w
		}
		if tags[w+1] == line {
			return w + 1
		}
		if tags[w+2] == line {
			return w + 2
		}
		if tags[w+3] == line {
			return w + 3
		}
	}
	for ; w < len(tags); w++ {
		if tags[w] == line {
			return w
		}
	}
	return -1
}

// rebuild replaces a set's presence filter with the OR over its
// resident tags, shedding the stale bits evictions leave behind. Called
// on a filter false positive (the filter said maybe-present, the scan
// found nothing), so a saturated filter repairs itself exactly when it
// starts costing wasted scans.
func (l *level) rebuild(si int, tags []int64) {
	var f uint64
	for _, t := range tags {
		if t != -1 {
			f |= l.bit(t)
		}
	}
	l.set[si].filt = f
}

// Hierarchy is one core's cache hierarchy plus the memory controller
// counters. It implements core.Backend.
type Hierarchy struct {
	l1, l2, l3 *level
	c          Counts
	spec       *machine.Spec

	pfOn       bool
	pfSlots    [pfSlotCount]int64 // last miss line per detected stream
	pfNext     int
	pfDist     int64
	adjacentOn bool
}

const pfSlotCount = 16

// New creates a hierarchy for the machine spec with prefetchers in their
// default (spec) state. Every cache geometry of spec must pass
// machine.CacheGeom.Validate; in particular no level may have more than
// machine.MaxWays ways (New panics otherwise).
func New(spec *machine.Spec) *Hierarchy {
	h := &Hierarchy{
		l1:         newLevel(spec.L1),
		l2:         newLevel(spec.L2),
		l3:         newLevel(spec.L3Slice()),
		spec:       spec,
		pfOn:       spec.PF.StreamEnabled,
		pfDist:     int64(spec.PF.StreamDistance),
		adjacentOn: spec.PF.AdjacentEnabled,
	}
	h.resetPrefetch()
	return h
}

// SetPrefetch enables or disables the hardware prefetcher models
// (likwid-features analogue).
func (h *Hierarchy) SetPrefetch(on bool) {
	h.pfOn = on && h.spec.PF.StreamEnabled
	h.adjacentOn = on && h.spec.PF.AdjacentEnabled
}

// PrefetchOn reports whether the stream prefetcher is active.
func (h *Hierarchy) PrefetchOn() bool { return h.pfOn }

// Counts returns a snapshot of all counters.
func (h *Hierarchy) Counts() Counts { return h.c }

// Flush writes back every dirty line and invalidates the hierarchy,
// counting the write-backs. Use at region boundaries when residual dirty
// state matters (small working sets).
func (h *Hierarchy) Flush() {
	for _, l := range []*level{h.l1, h.l2, h.l3} {
		h.c.MemWriteLines += l.reset()
	}
	h.resetPrefetch()
}

// resetPrefetch forgets every detected prefetch stream.
func (h *Hierarchy) resetPrefetch() {
	for i := range h.pfSlots {
		h.pfSlots[i] = -1
	}
}

// String summarizes the hierarchy geometry.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("L1 %d sets x%d | L2 %d sets x%d | L3slice %d sets x%d",
		h.l1.sets, h.l1.ways, h.l2.sets, h.l2.ways, h.l3.sets, h.l3.ways)
}
