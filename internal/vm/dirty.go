package vm

import (
	"math/bits"
	"sync/atomic"
)

// Dirty-page tracking.
//
// Every mutation of a space's contents — COW breaks in writablePage, Zero,
// SetPerm, CopyFrom, CopyAllFrom, and the destination side of Merge — sets a
// bit in a per-space, per-table bitmap. Snapshot clears the bitmaps and
// stamps the (space, snapshot) pair with a fresh identity token, so the
// marks in a space describe exactly the ptes that may have diverged since
// its most recent snapshot. Merge consults the marks when (and only when)
// it can prove they are trustworthy for the reference snapshot it was
// given — see dirtyGuided — turning the per-table pte scan from O(mapped)
// into O(dirtied). The marks are a conservative superset of the ptes that
// actually changed: a clean pte is never marked dirty by accident of
// omission, so guided and unguided walks always reach the same pages and
// produce identical merge results; the bitmap only narrows iteration.
//
// The bitmaps are owned by the space exactly as its page tables are: they
// are written only by the goroutine that owns the space.

// dirtyWords is the length of one table's dirty bitmap: one bit per pte.
const dirtyWords = tableEntries / 64

// dirtyBits marks the possibly-modified ptes of one level-2 table.
type dirtyBits [dirtyWords]uint64

// snapshotIDs issues globally unique snapshot identity tokens. The counter
// is only ever compared for equality, so it has no effect on deterministic
// results; it exists to let Merge recognize "ref is the snapshot this
// space's dirty marks have accumulated against". The tokens are never
// serialized: image encoding rebuilds snapshot identity from the
// space/snapshot link structure, so the process-global counter value can
// never reach result bytes.
//
//detlint:allow globalmut identity tokens compared only for equality, never ordered or serialized
var snapshotIDs atomic.Uint64

// dirtyTable returns the (lazily allocated) bitmap for level-1 index l1.
func (s *Space) dirtyTable(l1 int) *dirtyBits {
	b := s.dirty[l1]
	if b == nil {
		b = new(dirtyBits)
		s.dirty[l1] = b
	}
	return b
}

// markDirty records a possible modification of the pte covering a.
func (s *Space) markDirty(a Addr) {
	l1, l2 := split(a)
	s.dirtyTable(l1)[l2>>6] |= 1 << (uint(l2) & 63)
}

// setRange marks ptes [lo, hi) of one table.
func (b *dirtyBits) setRange(lo, hi int) {
	for w := lo >> 6; w<<6 < hi; w++ {
		word := ^uint64(0)
		if base := w << 6; base < lo {
			word <<= uint(lo - base)
		}
		if end := (w + 1) << 6; end > hi {
			word &= ^uint64(0) >> uint(end-hi)
		}
		b[w] |= word
	}
}

// markTableDirty records a possible modification of every pte of table l1
// (bulk operations that swap in a whole table).
func (s *Space) markTableDirty(l1 int) {
	b := s.dirtyTable(l1)
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// markAllDirty abandons precise tracking until the next Snapshot: every
// pte of the space may have changed (CopyAllFrom and other whole-space
// replacements).
func (s *Space) markAllDirty() { s.dirtyAll = true }

// clearDirty resets tracking to "nothing modified" — called by Snapshot,
// which is the moment the space and its reference copy are identical.
func (s *Space) clearDirty() {
	clear(s.dirty[:])
	s.dirtyAll = false
}

// anyDirty reports whether any modification has been recorded since the
// dirty state was last cleared.
func (s *Space) anyDirty() bool {
	if s.dirtyAll {
		return true
	}
	for _, b := range s.dirty {
		if b != nil {
			return true
		}
	}
	return false
}

// dirtyGuided reports whether cur's dirty marks can steer a merge against
// ref. This requires proof that the marks describe divergence from exactly
// this reference copy:
//
//   - ref must be the snapshot from cur's most recent Snapshot call (the
//     identity token matches), so the marks started accumulating at the
//     instant cur and ref were identical;
//   - cur must not have lost precision (markAllDirty);
//   - ref itself must be unmodified since it was taken — a mutated
//     reference diverges without cur's marks knowing.
//
// When the proof fails, Merge falls back to the full pte scan, which is
// always correct.
func dirtyGuided(cur, ref *Space) bool {
	return cur.snapID != 0 && ref.snapOf == cur.snapID &&
		!cur.dirtyAll && !ref.anyDirty()
}

// forEachSetBit calls visit for every set bit in b whose index lies in
// [lo, hi), in ascending order.
func (b *dirtyBits) forEachSetBit(lo, hi int, visit func(l2 int)) {
	for w := lo >> 6; w<<6 < hi; w++ {
		word := b[w]
		if word == 0 {
			continue
		}
		base := w << 6
		// Mask off bits outside [lo, hi).
		if base < lo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if base+64 > hi {
			word &= ^uint64(0) >> (64 - (uint(hi) - uint(base)))
		}
		for word != 0 {
			l2 := base + bits.TrailingZeros64(word)
			word &= word - 1
			visit(l2)
		}
	}
}
