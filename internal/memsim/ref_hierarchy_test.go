package memsim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"cloversim/internal/machine"
)

// refHierarchy is the reference the differential suites hold
// AccessRange to: the straightforward one-line-at-a-time hierarchy, with
// every level a stamp-per-way LRU refLevel (level_ref_test.go). It
// shares no code with the production hierarchy — no level, no lookup
// variant, no predictor or filter — only the Counts type it reports in
// and the machine spec it is built from.
type refHierarchy struct {
	lv [3]*refLevel // L1, L2, L3 slice
	c  Counts

	pfOn, adjacentOn bool
	pfDist           int64
	pfSlots          [16]int64 // last miss line per detected stream
	pfNext           int
}

// newRefHierarchy builds the reference for spec, its prefetchers set
// as Hierarchy.SetPrefetch(pfOn) sets them.
func newRefHierarchy(spec *machine.Spec, pfOn bool) *refHierarchy {
	r := &refHierarchy{
		pfOn:       pfOn && spec.PF.StreamEnabled,
		adjacentOn: pfOn && spec.PF.AdjacentEnabled,
		pfDist:     int64(spec.PF.StreamDistance),
	}
	for i, g := range []machine.CacheGeom{spec.L1, spec.L2, spec.L3Slice()} {
		// Set counts round down to a power of two.
		sets := 1 << (bits.Len(uint(g.Sets())) - 1)
		r.lv[i] = newRefLevel(sets, g.Ways)
	}
	r.forgetStreams()
	return r
}

func (r *refHierarchy) forgetStreams() {
	for i := range r.pfSlots {
		r.pfSlots[i] = -1
	}
}

// AccessRange performs the n accesses one line at a time.
func (r *refHierarchy) AccessRange(start, n int64, kind AccessKind) {
	for line := start; line < start+n; line++ {
		r.access(line, kind)
	}
}

func (r *refHierarchy) access(line int64, kind AccessKind) {
	switch kind {
	case AccessLoad:
		r.c.Loads++
		r.demand(line, false, true)
	case AccessRFO:
		r.c.RFOs++
		r.demand(line, true, false)
	case AccessWriteNTReverted:
		r.c.NTReverted++
		r.c.RFOs++
		r.demand(line, true, false)
	case AccessClaimI2M:
		r.c.ItoMLines++
		for _, l := range r.lv[:2] {
			if s := l.lookup(line); s >= 0 {
				l.drop(s)
			}
		}
		if s := r.lv[2].lookup(line); s >= 0 {
			r.lv[2].dirty[s] = true
			return
		}
		r.fill(2, line, true)
	case AccessClaimL2:
		r.c.ItoMLines++
		if s := r.lv[0].lookup(line); s >= 0 {
			r.lv[0].drop(s)
		}
		if s := r.lv[1].lookup(line); s >= 0 {
			r.lv[1].dirty[s] = true
			return
		}
		r.fill(1, line, true)
	case AccessWriteNT:
		r.c.NTLines++
		r.c.MemWriteLines++
	case AccessWriteStreamed:
		r.c.WSLines++
		r.c.MemWriteLines++
	}
}

// demand is a load or write-allocate: hit where the line is, else read
// it from memory (prefetching behind loads) and install it at every
// level, dirty at L1 for a write-allocate.
func (r *refHierarchy) demand(line int64, dirty, allowPF bool) {
	if s := r.lv[0].lookup(line); s >= 0 {
		r.c.L1Hits++
		if dirty {
			r.lv[0].dirty[s] = true
		}
		return
	}
	from := 2 // lowest level to install into
	switch {
	case r.lv[1].lookup(line) >= 0:
		r.c.L2Hits++
		from = 0
	case r.lv[2].lookup(line) >= 0:
		r.c.L3Hits++
		from = 1
	default:
		r.c.MemReadLines++
		if allowPF {
			r.prefetch(line)
		}
	}
	for i := from; i > 0; i-- {
		r.fill(i, line, false)
	}
	r.fill(0, line, dirty)
}

// fill installs line into level i and writes a dirty victim back to
// the next level (memory below L3).
func (r *refHierarchy) fill(i int, line int64, dirty bool) {
	_, ev, evDirty := r.lv[i].install(line, dirty)
	if !evDirty || ev < 0 {
		return
	}
	if i == 2 {
		r.c.MemWriteLines++
		return
	}
	if s := r.lv[i+1].lookup(ev); s >= 0 {
		r.lv[i+1].dirty[s] = true
		return
	}
	r.fill(i+1, ev, true)
}

// prefetch runs the adjacent-line prefetcher and the L2 streamer for a
// demand-load miss: the streamer arms on a miss one or two lines past a
// previous one and pulls the next pfDist absent lines into L3.
func (r *refHierarchy) prefetch(line int64) {
	if buddy := line ^ 1; r.adjacentOn && r.lv[2].lookup(buddy) < 0 && r.lv[1].lookup(buddy) < 0 {
		r.pull(buddy)
	}
	if !r.pfOn {
		return
	}
	armed := false
	for i, s := range r.pfSlots {
		if s == line-1 || s == line-2 {
			r.pfSlots[i] = line
			armed = true
			break
		}
	}
	if !armed {
		r.pfSlots[r.pfNext] = line
		r.pfNext = (r.pfNext + 1) % len(r.pfSlots)
		return
	}
	for d := int64(1); d <= r.pfDist; d++ {
		l := line + d
		if r.lv[2].lookup(l) < 0 && r.lv[1].lookup(l) < 0 && r.lv[0].lookup(l) < 0 {
			r.pull(l)
		}
	}
}

// pull prefetches one line from memory into L3.
func (r *refHierarchy) pull(line int64) {
	r.c.MemReadLines++
	r.c.PFLines++
	r.fill(2, line, false)
}

// Flush writes back every dirty line and empties the hierarchy.
func (r *refHierarchy) Flush() {
	r.c.MemWriteLines += int64(r.DirtyLines())
	for _, l := range r.lv {
		l.flush()
	}
	r.forgetStreams()
}

func (r *refHierarchy) Counts() Counts { return r.c }

func (r *refHierarchy) DirtyLines() int {
	n := 0
	for _, l := range r.lv {
		for _, d := range l.dirty {
			if d {
				n++
			}
		}
	}
	return n
}

// state reports each level's tags, dirty bits and recency order: ways
// by descending stamp, ties (ways untouched since the last flush) from
// the highest way down, as a flush leaves the production lists.
func (r *refHierarchy) state() [3]levelState {
	var out [3]levelState
	for i, l := range r.lv {
		st := levelState{
			tags:  append([]int64(nil), l.tags...),
			dirty: append([]bool(nil), l.dirty...),
			order: make([]uint8, 0, len(l.tags)),
		}
		ways := make([]uint8, l.ways)
		for base := 0; base < len(l.tags); base += l.ways {
			for k := range ways {
				ways[k] = uint8(l.ways - 1 - k)
			}
			slices.SortStableFunc(ways, func(a, b uint8) int {
				return cmp.Compare(l.stamp[base+int(b)], l.stamp[base+int(a)])
			})
			st.order = append(st.order, ways...)
		}
		out[i] = st
	}
	return out
}

// model is what the differential suites drive: the production
// Hierarchy or the reference.
type model interface {
	AccessRange(start, n int64, kind AccessKind)
	Counts() Counts
	DirtyLines() int
	Flush()
	state() [3]levelState
}

// Test-only inspection of the production hierarchy.

// DirtyLines counts dirty lines currently cached.
func (h *Hierarchy) DirtyLines() int {
	n := 0
	for _, l := range []*level{h.l1, h.l2, h.l3} {
		for _, st := range l.set {
			n += bits.OnesCount64(st.dirty)
		}
	}
	return n
}

// Invalidate drops all cached state without counting write-backs.
func (h *Hierarchy) Invalidate() {
	for _, l := range []*level{h.l1, h.l2, h.l3} {
		l.reset()
	}
	h.resetPrefetch()
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

// state reports each level's tags, dirty bits and recency lists.
func (h *Hierarchy) state() [3]levelState {
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
		if len(got[i].tags) != len(want[i].tags) {
			return fmt.Sprintf("%s: %d slots, want %d", names[i], len(got[i].tags), len(want[i].tags))
		}
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
