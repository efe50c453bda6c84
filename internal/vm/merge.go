package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// zeroData backs lazy-zero pages during comparisons. It is read-only by
// contract: every use aliases it behind a *[PageSize]byte that is only
// ever compared or copied from, and a write would corrupt every
// lazy-zero page in the process.
//
//detlint:allow globalmut read-only canonical zero page, aliased but never written
var zeroData [PageSize]byte

func dataOf(pg *page) *[PageSize]byte {
	if pg == nil {
		return &zeroData
	}
	return &pg.data
}

// MergeStats reports the work done by a Merge, for the kernel's
// virtual-time cost model. The semantic fields (adopted, compared, merged)
// depend only on the three spaces' contents and sharing, never on how the
// merge was executed. PtesScanned is the exception — it counts iteration
// effort.
type MergeStats struct {
	TablesAdopted int // whole child tables adopted (parent untouched since snapshot)
	PagesAdopted  int // child pages adopted wholesale (parent page untouched)
	PagesCompared int // pages byte-compared on the slow path
	BytesMerged   int // individual bytes copied into the parent
	PtesScanned   int // level-2 entries examined: the slots either side backs, in tables no longer shared
}

// Add accumulates another merge's statistics into s.
func (s *MergeStats) Add(o MergeStats) {
	s.TablesAdopted += o.TablesAdopted
	s.PagesAdopted += o.PagesAdopted
	s.PagesCompared += o.PagesCompared
	s.BytesMerged += o.BytesMerged
	s.PtesScanned += o.PtesScanned
}

// MergeConflictError reports write/write conflicts found during a Merge:
// bytes modified both by the child (relative to its reference snapshot) and
// by the parent. Determinator treats this as a runtime exception, like
// divide-by-zero; it is reliably detected regardless of execution schedule.
type MergeConflictError struct {
	Addrs []Addr // first few conflicting byte addresses, in address order
	Total int    // total conflicting bytes
}

func (e *MergeConflictError) Error() string {
	if len(e.Addrs) == 0 {
		return "vm: merge conflict"
	}
	return fmt.Sprintf("vm: merge conflict: %d byte(s) modified in both spaces (first at %#08x)",
		e.Total, e.Addrs[0])
}

const maxReportedConflicts = 8

// MergeMode selects how Merge treats bytes changed on both sides.
type MergeMode int

const (
	// MergeStrict reports write/write conflicts as errors: the private
	// workspace model's semantics.
	MergeStrict MergeMode = iota
	// MergeLastWriter lets the merging child's byte win silently. The
	// deterministic scheduler (§4.5) uses this: under quantized execution
	// racy writes commit in deterministic round order — repeatable, but
	// no more predictable than conventional threads, as the paper notes.
	MergeLastWriter
)

// MergeConfig parameterizes a merge. Mode decides what a byte both
// sides changed becomes — a conflict or the child's byte — so it is part
// of the merge's semantics, not an execution choice. Moved is an output
// sink and selects no behaviour: a nil one is the same merge. Neither
// touches the merge's one slot rule: a slot moves only where the child
// maps it with a page other than its snapshot's. A page the child
// unmapped is not a change, and the parent keeps its page; nor is a
// permission the child set, or a slot it mapped but never backed.
type MergeConfig struct {
	// Mode selects conflict handling (MergeStrict or MergeLastWriter).
	Mode MergeMode
	// Moved, if non-nil, is called with the address of every page the
	// merge adopts or compares — PagesAdopted+PagesCompared calls, in
	// ascending address order, as the walk reaches each page. These are
	// the pages cur maps whose entries differ from ref's, in the tables
	// cur holds and no longer shares with ref: the merge's own output,
	// which a kernel merging a child on another node ships home.
	Moved func(pa Addr)
}

// Merge folds the child's changes since its reference snapshot into dst
// (the parent), over the page-aligned range [addr, addr+size). For every
// byte that differs between cur (the child's current state) and ref (the
// snapshot taken when the child was forked), the byte is copied into dst —
// unless dst itself changed that byte since the snapshot, which is a
// conflict. Bytes the child did not change are left untouched in dst, and
// so is a page the child unmapped: unmapping is not a change, and the
// parent keeps its page, its bytes and its permissions. A permission the
// child set is not a change either: wherever the parent maps a slot, the
// slot keeps the parent's permission. Nor is a mapping without a page: a
// slot the snapshot does not back, which the child SetPerms or Zeros and
// never writes, stays as the parent has it — unmapped, if the parent
// does not map it.
//
// Merge is the kernel-level operation behind the Merge option of Get; the
// byte-granularity semantics are what make Determinator's private
// workspace model deterministic: the outcome depends only on which bytes
// each side wrote, never on when they wrote them.
func Merge(dst, cur, ref *Space, addr Addr, size uint64) (MergeStats, error) {
	return MergeEx(dst, cur, ref, addr, size, MergeConfig{Mode: MergeStrict})
}

// mergeCtx carries one merge's parameters and the caller's output sinks.
type mergeCtx struct {
	mode     MergeMode
	st       *MergeStats
	conflict *MergeConflictError
	moved    func(pa Addr)
}

// MergeEx is the merge engine's entry point; see MergeConfig. It walks
// only the level-2 tables cur no longer shares with ref, and inside each
// only the slots either side backs (occIn).
func MergeEx(dst, cur, ref *Space, addr Addr, size uint64, cfg MergeConfig) (MergeStats, error) {
	var st MergeStats
	if err := rangeCheck(addr, size); err != nil {
		return st, err
	}

	// Walk only the level-2 tables that exist in the child: the snapshot
	// was taken from the child, so any page mapped in ref is mapped in cur.
	// A table the child never touched is still pointer-shared with the
	// snapshot and is skipped outright.
	end := uint64(addr) + size
	conflict := &MergeConflictError{}
	c := mergeCtx{mode: cfg.Mode, st: &st, conflict: conflict, moved: cfg.Moved}
	for l1 := int(addr >> l1Shift); uint64(l1)<<l1Shift < end; l1++ {
		ct := cur.root[l1]
		if ct == nil || ct == ref.root[l1] {
			continue // child did not touch this whole 4 MiB span
		}
		base := uint64(l1) << l1Shift
		lo, hi := 0, tableEntries
		if base < uint64(addr) {
			lo = int((uint64(addr) - base) >> l2Shift)
		}
		if base+(tableEntries<<l2Shift) > end {
			hi = int((end - base) >> l2Shift)
		}
		mergeTable(dst, cur, ref, l1, lo, hi, c)
	}
	if conflict.Total > 0 {
		return st, conflict
	}
	return st, nil
}

// mergeTable merges the slots [lo, hi) of the level-2 table at level-1
// index l1 into dst. Everything it mutates hangs off dst's slot l1.
//
// A slot moves only where the child maps it with a page other than the
// snapshot's: an unmapping, a permission or a mapping without a page is
// not a change (Merge). When the parent still shares the snapshot's
// table — it has not touched this span since the fork — and the whole
// table is merged, adopting the child's table is the per-slot merge
// exactly when no slot holds one of those three, which keepsSnapshot
// decides from the child's and the snapshot's tables alone. The walk is
// one either way: it counts and names every changed page, merging it
// slot by slot or, for an adopted table, swapping the table in after.
func mergeTable(dst, cur, ref *Space, l1, lo, hi int, c mergeCtx) {
	ct := cur.root[l1]
	rt := ref.root[l1]
	dt := dst.root[l1]
	st := c.st
	base := Addr(uint64(l1) << l1Shift)
	adopt := dt == rt && lo == 0 && hi == tableEntries && keepsSnapshot(ct, rt)
	dc := cursor{s: dst, l1: l1}
	for w := lo >> 6; w<<6 < hi; w++ {
		word := occIn(ct, rt, w, lo, hi)
		st.PtesScanned += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			l2 := w<<6 | bits.TrailingZeros64(word)
			ce := ct.ptes[l2]
			var re pte
			if rt != nil {
				re = rt.ptes[l2]
			}
			if ce.pg == re.pg || !ce.mapped() {
				continue // child did not change this page, or unmapped it
			}
			pa := base + Addr(l2)<<l2Shift
			if c.moved != nil {
				c.moved(pa)
			}
			if adopt {
				st.PagesAdopted++
			} else {
				mergePage(&dc, pa, l2, ce, re, c)
			}
		}
	}
	if adopt {
		dst.root[l1] = shareTable(ct)
		dst.frames.dropTable(dt)
		st.TablesAdopted++
	}
}

// keepsSnapshot reports whether adopting ct whole is the per-slot merge
// into a parent that still shares rt: ct maps every slot rt maps, with
// rt's permission, and maps no slot rt leaves unmapped without a page. A
// slot the child unmapped, re-permissioned or mapped without writing is
// not a change, and adoption would take from the parent its page, its
// permission or its empty slot. A nil rt maps nothing.
//
// A slot is mapped exactly when its bit is set in occ|rd|wr, so the rule
// is read off the bitmaps a word of 64 slots at a time. The four tests
// are disjoint: a slot rt maps and ct does not; a slot both map whose read
// or whose write permission differs; a slot only ct maps, with no page.
func keepsSnapshot(ct, rt *table) bool {
	for w := range ct.occ {
		var so, sr, sw uint64 // the snapshot's words: none for no table
		if rt != nil {
			so, sr, sw = rt.occ[w], rt.rd[w], rt.wr[w]
		}
		co, cr, cw := ct.occ[w], ct.rd[w], ct.wr[w]
		sm, cm := so|sr|sw, co|cr|cw
		both := sm & cm
		if sm&^cm != 0 || both&(cr^sr) != 0 || both&(cw^sw) != 0 || cm&^sm&^co != 0 {
			return false
		}
	}
	return true
}

// mergePage merges one child page at address pa into dst: adopted whole
// when the parent has not touched it, three-way compared by the
// word-masked kernel otherwise.
func mergePage(dc *cursor, pa Addr, l2 int, ce, re pte, c mergeCtx) {
	de := dc.entry(l2)
	if de.pg == re.pg {
		// Fast path: the parent has not touched this page since the
		// snapshot (it still shares the snapshot's page), so adopting the
		// child's whole page is byte-for-byte equivalent to copying only
		// the changed bytes.
		t := dc.own()
		if ce.pg != nil {
			ce.pg.refs.Add(1)
		}
		if old := t.ptes[l2].pg; old != nil {
			dc.s.frames.dropPage(old)
		}
		perm := de.perm
		if !de.mapped() {
			perm = ce.perm
		}
		t.set(l2, pte{pg: ce.pg, perm: perm})
		c.st.PagesAdopted++
		return
	}
	mergePageWords(dc, pa, l2, ce, re, de, c)
}

// byteMaskOf expands a word x into a byte mask: every byte of the result
// is 0xFF where the corresponding byte of x is nonzero, 0x00 where it is
// zero. The OR-fold collapses each byte's bits into its bit 0 (shifts of
// at most 7 never cross into a lower byte's bit 0), and the multiply
// smears bit 0 across the byte.
func byteMaskOf(x uint64) uint64 {
	m := x | x>>4
	m |= m >> 2
	m |= m >> 1
	m &= 0x0101010101010101
	return m * 0xFF
}

// mergeBlock and mergeStride are the two spans the word kernel
// pre-filters with bytes.Equal before walking words. Equal spans — the
// common case on pages where a child touched a few bytes — are skipped
// at memequal (SIMD) speed; the two-level hierarchy (page quarters,
// then 256-byte strides inside a differing quarter) keeps the call
// count low on mostly-clean pages without widening the word walk.
const (
	mergeBlock  = 1024
	mergeStride = 256
)

// mergePageWords is the word-masked merge kernel. It produces destination
// bytes, statistics and conflict addresses bit-identical to the per-byte
// reference kernel kept in merge_kernel_test.go (property-tested there)
// while moving data a word or a run at a time:
//
//   - a whole-page bytes.Equal prefilter, then a bytes.Equal skip per
//     256-byte stride, dispose of the unchanged spans at memequal speed;
//   - each differing word derives a byte mask from cw^rw; the strict-mode
//     conflict test for all eight bytes is one masked compare of dw^rw;
//   - conflict-free words merge with a single masked 8-byte store, and
//     BytesMerged is the mask's byte population count;
//   - maximal runs of fully-changed words coalesce into one copy().
//
// Conflict words (strict mode only) fall back to the per-byte decode so
// conflict addresses are recorded in the same ascending order, and the
// non-conflicting bytes of such words still merge, exactly as the
// reference kernel does.
func mergePageWords(dc *cursor, pa Addr, l2 int, ce, re pte, de pte, c mergeCtx) {
	st, conflict := c.st, c.conflict
	st.PagesCompared++
	curD, refD, dstD := dataOf(ce.pg), dataOf(re.pg), dataOf(de.pg)
	if bytes.Equal(curD[:], refD[:]) {
		return // child did not change a byte; nothing to merge
	}
	var wp *page // writable dst page, fetched lazily
	writable := func() *page {
		if wp == nil {
			wp = dc.writablePage(l2, false)
		}
		return wp
	}
	// runStart tracks a pending run of fully-changed words; flush copies
	// the run [runStart, end) from the child in one memmove.
	runStart := -1
	flush := func(end int) {
		if runStart < 0 {
			return
		}
		p := writable()
		copy(p.data[runStart:end], curD[runStart:end])
		st.BytesMerged += end - runStart
		runStart = -1
	}
	for blk := 0; blk < PageSize; blk += mergeBlock {
		if bytes.Equal(curD[blk:blk+mergeBlock], refD[blk:blk+mergeBlock]) {
			flush(blk)
			continue
		}
		for base := blk; base < blk+mergeBlock; base += mergeStride {
			if bytes.Equal(curD[base:base+mergeStride], refD[base:base+mergeStride]) {
				flush(base)
				continue
			}
			for off := base; off < base+mergeStride; off += 8 {
				cw := binary.LittleEndian.Uint64(curD[off:])
				rw := binary.LittleEndian.Uint64(refD[off:])
				x := cw ^ rw
				if x == 0 {
					flush(off)
					continue
				}
				mask := byteMaskOf(x)
				dw := binary.LittleEndian.Uint64(dstD[off:])
				if c.mode == MergeStrict && (dw^rw)&mask != 0 {
					// At least one child-changed byte was changed by the
					// parent too. Decode per byte: record conflicts in
					// ascending address order, merge the rest.
					flush(off)
					for b := 0; b < 8; b++ {
						sh := 8 * b
						cb, rb := byte(cw>>sh), byte(rw>>sh)
						if cb == rb {
							continue
						}
						if byte(dw>>sh) != rb {
							if len(conflict.Addrs) < maxReportedConflicts {
								conflict.Addrs = append(conflict.Addrs, pa+Addr(off+b))
							}
							conflict.Total++
							continue
						}
						writable().data[off+b] = cb
						st.BytesMerged++
					}
					continue
				}
				if mask == ^uint64(0) {
					// Fully-changed word: extend the pending run instead of
					// storing now; adjacent full words become one copy().
					if runStart < 0 {
						runStart = off
					}
					continue
				}
				flush(off)
				merged := (dw &^ mask) | (cw & mask)
				binary.LittleEndian.PutUint64(writable().data[off:], merged)
				st.BytesMerged += bits.OnesCount64(mask) >> 3
			}
		}
	}
	flush(PageSize)
}
