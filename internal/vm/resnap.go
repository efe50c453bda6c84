package vm

// Root sharing: the one walk that makes a run of one space's root slots
// pointer-equal to a run of another's.
//
// A level-2 table two spaces share is one neither has changed since:
// sharing makes it immutable, and a write to either side copies it first
// (ownTable). So a whole-table copy, a fork, a snapshot and a re-snapshot
// are one operation — re-share each destination slot whose table differs
// from its source slot's — and each charges the cost model only for the
// non-nil tables it actually re-shared. Snapshot, CopyAllFrom, Resnap and
// CopyFrom's whole-table path all call shareRoot; a no-op re-snapshot
// or a resync of an unchanged child is free in virtual time too.

// shareRoot makes root slots [dst, dst+n) of s pointer-equal to slots
// [src, src+n) of from, dropping the tables s held there, and returns
// how many non-nil tables it re-shared. Slots already equal are left
// alone; 64 at a time are compared at memequal speed first, since most
// blocks of a re-snapshotted or resynced root have not changed. The new
// reference is taken before the old one is dropped.
func (s *Space) shareRoot(from *Space, src, dst, n int) (shared int) {
	for i := 0; i < n; i += resnapSpan {
		k := min(resnapSpan, n-i)
		if k == resnapSpan && *(*[resnapSpan]*table)(s.root[dst+i:]) == *(*[resnapSpan]*table)(from.root[src+i:]) {
			continue
		}
		for j := i; j < i+k; j++ {
			if t, o := from.root[src+j], s.root[dst+j]; t != o {
				s.root[dst+j] = shareTable(t)
				s.frames.dropTable(o)
				if t != nil {
					shared++
				}
			}
		}
	}
	return shared
}

// resnapSpan is how many root slots shareRoot compares at once before it
// looks at them one by one: a block compare runs at memequal speed.
const resnapSpan = 64

// Snapshot returns a COW clone of the entire space, used as the reference
// copy for a later Merge (the Snap option of Put). It shares whole level-2
// tables, so snapshotting costs O(mapped address space / 4 MiB), and
// whatever either side later writes parts from the other by copy-on-write.
func (s *Space) Snapshot() (*Space, CopyStats) {
	snap := &Space{frames: s.frames}
	return snap, snap.CopyAllFrom(s)
}

// Resnap updates old to be a current snapshot of s, returning the
// snapshot to use in its place and the sharing stats for cost accounting.
// Every root slot where old differs from s is re-shared from s, and each
// non-nil table re-shared is charged, so old comes out pointer-identical
// to a fresh Snapshot whatever its history. A nil old is Snapshot.
func (s *Space) Resnap(old *Space) (*Space, CopyStats) {
	if old == nil {
		return s.Snapshot()
	}
	return old, old.CopyAllFrom(s)
}

// CopyAllFrom replaces the entire contents of s with a COW clone of src,
// releasing whatever s held before. It is the bulk path behind fork-style
// "copy the parent's whole memory into the child" Put calls: whole
// level-2 tables are shared, so the cost is O(mapped space / 4 MiB).
func (s *Space) CopyAllFrom(src *Space) CopyStats {
	return CopyStats{TablesShared: s.shareRoot(src, 0, 0, tableEntries)}
}
