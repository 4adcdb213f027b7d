package memsim

// AccessKind names one hierarchy operation: a demand load, a
// write-allocate, one of the two write-allocate-evading claims, or one
// of the three direct memory writes.
type AccessKind uint8

const (
	AccessLoad            AccessKind = iota // demand load
	AccessRFO                               // write-allocate: fetched, installed dirty
	AccessClaimI2M                          // SpecI2M ItoM: claimed dirty at L3, no read
	AccessClaimL2                           // A64FX cache-line zero: claimed dirty in L2, no read
	AccessWriteNT                           // non-temporal write straight to memory
	AccessWriteNTReverted                   // NT store demoted to a write-allocate
	AccessWriteStreamed                     // ARM write-streaming write straight to memory
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
// start..start+n-1, in order; it is the only way into the hierarchy.
// A run of n lines is exactly n runs of one line — cache state and
// Counts are identical, which the differential tests against the
// reference hierarchy enforce — but long runs exploit sequential-line
// locality: hits resolve via a predicted-way compare (a stream lands on
// the same way across consecutive sets), tag scans are unrolled,
// presence filters skip scans for absent lines, and per-access counters
// are batched. Streaming loop nests spend most of their simulated
// accesses here.
func (h *Hierarchy) AccessRange(start, n int64, kind AccessKind) {
	if n <= 0 {
		return
	}
	switch kind {
	case AccessWriteNT:
		// NT writes touch no cache state: pure counter batch.
		h.c.NTLines += n
		h.c.MemWriteLines += n
		return
	case AccessWriteStreamed:
		// ARM write-streaming mode sends the store stream straight to
		// memory; distinct from NT writes only in accounting.
		h.c.WSLines += n
		h.c.MemWriteLines += n
		return
	case AccessLoad:
		h.c.Loads += n
	case AccessRFO:
		h.c.RFOs += n
	case AccessWriteNTReverted:
		// An NT store the hardware demoted to a regular write-allocate.
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
			h.claimI2M(line)
		}
	case AccessClaimL2:
		for line := start; line < start+n; line++ {
			h.claimL2(line)
		}
	}
}

// accessRange performs n demand loads (dirty false) or write-allocates
// (dirty true) on consecutive lines, minus the Loads/RFOs counter,
// which the caller batches. A miss reads the line from memory — via
// memFetch, which may first prefetch other lines, when allowPF and a
// prefetcher is on — and installs it at every level.
func (h *Hierarchy) accessRange(start, n int64, dirty, allowPF bool) {
	l1, l2, l3 := h.l1, h.l2, h.l3
	prefetch := allowPF && (h.pfOn || h.adjacentOn)
	for line := start; line < start+n; line++ {
		if slot, hit := l1.probe(line); hit {
			h.c.L1Hits++
			if dirty {
				l1.markDirty(line, slot)
			}
			continue
		}
		if _, hit := l2.lookup(line); hit {
			h.c.L2Hits++
			if ev, d := l1.install(line, dirty); d && ev >= 0 {
				h.writebackToL2(ev)
			}
			continue
		}
		if _, hit := l3.lookup(line); hit {
			h.c.L3Hits++
			if ev, d := l2.install(line, false); d && ev >= 0 {
				h.writebackToL3(ev)
			}
			if ev, d := l1.install(line, dirty); d && ev >= 0 {
				h.writebackToL2(ev)
			}
			continue
		}
		if prefetch {
			h.memFetch(line)
		} else {
			h.c.MemReadLines++
		}
		if ev, d := l3.install(line, false); d && ev >= 0 {
			h.c.MemWriteLines++
		}
		if ev, d := l2.install(line, false); d && ev >= 0 {
			h.writebackToL3(ev)
		}
		if ev, d := l1.install(line, dirty); d && ev >= 0 {
			h.writebackToL2(ev)
		}
	}
}

// writebackToL2 handles a dirty eviction from L1.
func (h *Hierarchy) writebackToL2(line int64) {
	if slot, hit := h.l2.lookupWB(line); hit {
		h.l2.markDirty(line, slot)
		return
	}
	if ev, d := h.l2.install(line, true); d && ev >= 0 {
		h.writebackToL3(ev)
	}
}

// writebackToL3 handles a dirty eviction from L2.
func (h *Hierarchy) writebackToL3(line int64) {
	if slot, hit := h.l3.lookupWB(line); hit {
		h.l3.markDirty(line, slot)
		return
	}
	if ev, d := h.l3.install(line, true); d && ev >= 0 {
		h.c.MemWriteLines++
	}
}

// memFetch reads a demand-load miss from memory (counting) and runs the
// prefetchers. Prefetching only follows demand-load streams: store
// (RFO) streams are handled by the write-allocate-evasion engine, and
// prefetching them would defeat ItoM claims (the hardware suppresses
// this likewise).
func (h *Hierarchy) memFetch(line int64) {
	h.c.MemReadLines++
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
		h.prefetch(line)
	}
}

// prefetch implements a simple L2 streamer: a miss that is sequential to
// a previous miss arms a stream and pulls the next pfDist lines into L3.
func (h *Hierarchy) prefetch(line int64) {
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

// claimI2M claims the line dirty at L3 without a memory read (SpecI2M
// ItoM transaction), dropping stale private copies so the dirty state
// lives at L3.
func (h *Hierarchy) claimI2M(line int64) {
	h.c.ItoMLines++
	if slot, hit := h.l1.lookupScan(line); hit {
		h.l1.drop(line, slot)
	}
	if slot, hit := h.l2.lookupScan(line); hit {
		h.l2.drop(line, slot)
	}
	if slot, hit := h.l3.lookup(line); hit {
		h.l3.markDirty(line, slot)
		return
	}
	if ev, d := h.l3.install(line, true); d && ev >= 0 {
		h.c.MemWriteLines++
	}
}

// claimL2 claims the line dirty in the private L2 without a memory read
// (A64FX cache-line zero). The write reaches memory via the normal
// write-back path, and — unlike ItoM — the data is immediately reusable
// from the private cache. It counts in the same evasion event class.
func (h *Hierarchy) claimL2(line int64) {
	h.c.ItoMLines++
	if slot, hit := h.l1.lookupScan(line); hit {
		h.l1.drop(line, slot)
	}
	if slot, hit := h.l2.lookup(line); hit {
		h.l2.markDirty(line, slot)
		return
	}
	if ev, d := h.l2.install(line, true); d && ev >= 0 {
		h.writebackToL3(ev)
	}
}
