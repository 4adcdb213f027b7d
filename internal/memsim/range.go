package memsim

// AccessKind names one per-line hierarchy operation for batched replay.
// The kinds mirror the core.Backend methods one-to-one.
type AccessKind uint8

const (
	AccessLoad AccessKind = iota
	AccessRFO
	AccessClaimI2M
	AccessClaimL2
	AccessWriteNT
	AccessWriteNTReverted
	AccessWriteStreamed
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessRFO:
		return "rfo"
	case AccessClaimI2M:
		return "claim-i2m"
	case AccessClaimL2:
		return "claim-l2"
	case AccessWriteNT:
		return "write-nt"
	case AccessWriteNTReverted:
		return "write-nt-reverted"
	case AccessWriteStreamed:
		return "write-streamed"
	}
	return "unknown"
}

// AccessRange performs n accesses of one kind to the consecutive lines
// start..start+n-1. It is semantically identical to calling the matching
// per-line method (Load, RFO, ClaimI2M, ...) in a loop — cache state and
// Counts are bit-identical, which the differential tests in
// range_test.go enforce — but runs on a flattened simulation that
// exploits sequential-line locality: hits resolve via a predicted-way
// compare (a stream lands on the same way across consecutive sets), tag
// scans are unrolled, presence filters skip scans for absent lines, and
// per-access counters are batched. Streaming loop nests spend most of
// their simulated accesses here.
func (h *Hierarchy) AccessRange(start, n int64, kind AccessKind) {
	if n <= 0 {
		return
	}
	switch kind {
	case AccessWriteNT:
		// WriteNT touches no cache state: pure counter batch.
		h.c.NTLines += n
		h.c.MemWriteLines += n
		return
	case AccessWriteStreamed:
		h.c.WSLines += n
		h.c.MemWriteLines += n
		return
	case AccessLoad:
		h.c.Loads += n
	case AccessRFO:
		h.c.RFOs += n
	case AccessWriteNTReverted:
		h.c.NTReverted += n
		h.c.RFOs += n
	}
	switch kind {
	case AccessLoad:
		h.accessRange(start, n, false, true)
	case AccessRFO, AccessWriteNTReverted:
		h.accessRange(start, n, true, false)
	case AccessClaimI2M:
		for line := start; line < start+n; line++ {
			h.claimI2MFast(line)
		}
	case AccessClaimL2:
		for line := start; line < start+n; line++ {
			h.claimL2Fast(line)
		}
	}
}

// RFORange implements core.RangeBackend.
func (h *Hierarchy) RFORange(start, n int64) { h.AccessRange(start, n, AccessRFO) }

// ClaimI2MRange implements core.RangeBackend.
func (h *Hierarchy) ClaimI2MRange(start, n int64) { h.AccessRange(start, n, AccessClaimI2M) }

// ClaimL2Range implements core.RangeBackend.
func (h *Hierarchy) ClaimL2Range(start, n int64) { h.AccessRange(start, n, AccessClaimL2) }

// WriteStreamedRange implements core.RangeBackend.
func (h *Hierarchy) WriteStreamedRange(start, n int64) { h.AccessRange(start, n, AccessWriteStreamed) }

// WriteNTRange implements core.RangeBackend.
func (h *Hierarchy) WriteNTRange(start, n int64) { h.AccessRange(start, n, AccessWriteNT) }

// WriteNTRevertedRange implements core.RangeBackend.
func (h *Hierarchy) WriteNTRevertedRange(start, n int64) {
	h.AccessRange(start, n, AccessWriteNTReverted)
}

// accessRange is the batched equivalent of n calls to access() on
// consecutive lines (minus the Loads/RFOs counter, which the caller
// batches). On a full miss with active prefetchers, memFetch may touch
// any level, so that case falls back to the exact per-line miss
// sequence.
func (h *Hierarchy) accessRange(start, n int64, dirty, allowPF bool) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	fusedMiss := !allowPF || (!h.pfOn && !h.adjacentOn)
	for line := start; line < start+n; line++ {
		if slot, hit := l1.probe(line); hit {
			h.c.L1Hits++
			if dirty {
				l1.markDirty(line, slot)
			}
			continue
		}
		if _, hit := l2.lookupFast(line); hit {
			h.c.L2Hits++
			if ev, d := l1.install(line, dirty); d && ev >= 0 {
				h.writebackToL2Fast(ev)
			}
			continue
		}
		if _, hit := l3.lookupFast(line); hit {
			h.c.L3Hits++
			if ev, d := l2.install(line, false); d && ev >= 0 {
				h.writebackToL3Fast(ev)
			}
			if ev, d := l1.install(line, dirty); d && ev >= 0 {
				h.writebackToL2Fast(ev)
			}
			continue
		}
		if fusedMiss {
			h.c.MemReadLines++
			if ev, d := l3.install(line, false); d && ev >= 0 {
				h.c.MemWriteLines++
			}
			if ev, d := l2.install(line, false); d && ev >= 0 {
				h.writebackToL3Fast(ev)
			}
			if ev, d := l1.install(line, dirty); d && ev >= 0 {
				h.writebackToL2Fast(ev)
			}
			continue
		}
		h.memFetchFast(line, allowPF)
		h.installThroughFast(line, dirty)
	}
}

// The Fast install/write-back/prefetch chain below mirrors the per-line
// chain operation for operation — same probe order, same LRU updates,
// same short-circuiting — swapping only the lookups for their predicted
// and filtered variants.

// installToL1Fast is installToL1 on the fast chain.
func (h *Hierarchy) installToL1Fast(line int64, dirty bool) {
	if ev, d := h.l1.install(line, dirty); d && ev >= 0 {
		h.writebackToL2Fast(ev)
	}
}

// installL2L1Fast is installL2L1 on the fast chain.
func (h *Hierarchy) installL2L1Fast(line int64, dirty bool) {
	if ev, d := h.l2.install(line, false); d && ev >= 0 {
		h.writebackToL3Fast(ev)
	}
	h.installToL1Fast(line, dirty)
}

// installThroughFast is installThrough on the fast chain.
func (h *Hierarchy) installThroughFast(line int64, dirty bool) {
	if ev, d := h.l3.install(line, false); d && ev >= 0 {
		h.c.MemWriteLines++
	}
	h.installL2L1Fast(line, dirty)
}

// writebackToL2Fast is writebackToL2 on the fast chain.
func (h *Hierarchy) writebackToL2Fast(line int64) {
	if slot, hit := h.l2.lookupWB(line); hit {
		h.l2.markDirty(line, slot)
		return
	}
	if ev, d := h.l2.install(line, true); d && ev >= 0 {
		h.writebackToL3Fast(ev)
	}
}

// writebackToL3Fast is writebackToL3 on the fast chain.
func (h *Hierarchy) writebackToL3Fast(line int64) {
	if slot, hit := h.l3.lookupWB(line); hit {
		h.l3.markDirty(line, slot)
		return
	}
	if ev, d := h.l3.install(line, true); d && ev >= 0 {
		h.c.MemWriteLines++
	}
}

// memFetchFast is memFetch on the fast chain.
func (h *Hierarchy) memFetchFast(line int64, allowPF bool) {
	h.c.MemReadLines++
	if !allowPF {
		return
	}
	if h.adjacentOn {
		buddy := line ^ 1
		_, l3hit := h.l3.lookupScan(buddy)
		if !l3hit {
			if _, l2hit := h.l2.lookupScan(buddy); !l2hit {
				h.c.MemReadLines++
				h.c.PFLines++
				if ev, d := h.l3.install(buddy, false); d && ev >= 0 {
					h.c.MemWriteLines++
				}
			}
		}
	}
	if h.pfOn {
		h.prefetchFast(line)
	}
}

// prefetchFast is prefetch on the fast chain.
func (h *Hierarchy) prefetchFast(line int64) {
	armed := false
	for i := range h.pfSlots {
		if h.pfSlots[i] == line-1 || h.pfSlots[i] == line-2 {
			h.pfSlots[i] = line
			armed = true
			break
		}
	}
	if !armed {
		h.pfSlots[h.pfNext] = line
		h.pfNext = (h.pfNext + 1) % pfSlotCount
		return
	}
	for d := int64(1); d <= h.pfDist; d++ {
		l := line + d
		if _, hit := h.l3.lookupScan(l); hit {
			continue
		}
		if _, hit := h.l2.lookupScan(l); hit {
			continue
		}
		if _, hit := h.l1.lookupScan(l); hit {
			continue
		}
		h.c.MemReadLines++
		h.c.PFLines++
		if ev, dd := h.l3.install(l, false); dd && ev >= 0 {
			h.c.MemWriteLines++
		}
	}
}

// claimI2MFast is ClaimI2M on the fast chain.
func (h *Hierarchy) claimI2MFast(line int64) {
	h.c.ItoMLines++
	if slot, hit := h.l1.lookupScan(line); hit {
		h.l1.drop(line, slot)
	}
	if slot, hit := h.l2.lookupScan(line); hit {
		h.l2.drop(line, slot)
	}
	if slot, hit := h.l3.lookupFast(line); hit {
		h.l3.markDirty(line, slot)
		return
	}
	if ev, d := h.l3.install(line, true); d && ev >= 0 {
		h.c.MemWriteLines++
	}
}

// claimL2Fast is ClaimL2 on the fast chain.
func (h *Hierarchy) claimL2Fast(line int64) {
	h.c.ItoMLines++
	if slot, hit := h.l1.lookupScan(line); hit {
		h.l1.drop(line, slot)
	}
	if slot, hit := h.l2.lookupFast(line); hit {
		h.l2.markDirty(line, slot)
		return
	}
	if ev, d := h.l2.install(line, true); d && ev >= 0 {
		h.writebackToL3Fast(ev)
	}
}
