package vm

import "math/bits"

// Delta extraction: the compact description of "which pages did this
// space change since that reference copy" that the kernel's batched
// cross-node transfer path ships instead of walking the whole region.
//
// A page belongs to the delta exactly when its identity (the backing
// *page pointer) differs between cur and ref — the same criterion Merge
// uses to select the pages it adopts or byte-compares, so for any range
// the delta's page count equals that merge's PagesAdopted+PagesCompared.
// Identity comparison is conservative the safe way around: a page COW-
// broken and rewritten with identical bytes still counts (it would be
// byte-compared by Merge too), while an untouched page never does.
//
// Like Merge, the walk skips every level-2 table the two spaces still
// share and, inside the others, visits only the slots either side backs
// (occIn), in ascending address order.

// PageRun names a contiguous run of whole pages starting at Addr.
type PageRun struct {
	Addr  Addr
	Pages int
}

// DeltaRuns returns the pages in the page-aligned range [addr, addr+size)
// whose identity in cur differs from ref, coalesced into address-ordered
// contiguous runs of at most maxRun pages each (maxRun <= 0 leaves runs
// uncapped). The result depends only on the two spaces' contents, never
// on how they were produced or walked.
func DeltaRuns(cur, ref *Space, addr Addr, size uint64, maxRun int) []PageRun {
	if rangeCheck(addr, size) != nil || size == 0 {
		return nil
	}
	var runs []PageRun
	flush := func(pa Addr) {
		// Extend the current run or start a new one; split at maxRun.
		if n := len(runs); n > 0 {
			last := &runs[n-1]
			if last.Addr+Addr(last.Pages)<<PageShift == pa &&
				(maxRun <= 0 || last.Pages < maxRun) {
				last.Pages++
				return
			}
		}
		runs = append(runs, PageRun{Addr: pa, Pages: 1})
	}
	end := uint64(addr) + size
	for l1 := int(addr >> l1Shift); uint64(l1)<<l1Shift < end; l1++ {
		ct := cur.root[l1]
		rt := ref.root[l1]
		if ct == rt {
			continue // pointer-shared (or both nil): no page differs
		}
		base := uint64(l1) << l1Shift
		lo, hi := 0, tableEntries
		if base < uint64(addr) {
			lo = int((uint64(addr) - base) >> l2Shift)
		}
		if base+(tableEntries<<l2Shift) > end {
			hi = int((end - base) >> l2Shift)
		}
		for w := lo >> 6; w<<6 < hi; w++ {
			for word := occIn(ct, rt, w, lo, hi); word != 0; word &= word - 1 {
				l2 := w<<6 | bits.TrailingZeros64(word)
				var cp, rp *page
				if ct != nil {
					cp = ct.ptes[l2].pg
				}
				if rt != nil {
					rp = rt.ptes[l2].pg
				}
				if cp != rp {
					flush(Addr(base) + Addr(l2)<<l2Shift)
				}
			}
		}
	}
	return runs
}
