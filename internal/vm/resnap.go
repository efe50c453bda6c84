package vm

// Incremental snapshot maintenance.
//
// The kernel's Snap option used to rebuild a space's reference snapshot
// from scratch every time: free the old clone, re-share every mapped
// level-2 table. For the deterministic scheduler, which re-snapshots
// every runnable thread every quantum, that O(mapped tables) churn
// dominated round cost even when a thread had touched one table — or
// nothing at all.
//
// A level-2 table a space still shares with its snapshot is one neither
// side has changed: sharing makes it immutable, and a write to either
// side copies it first (ownTable). So the root slots where the two
// differ are exactly the ones to re-share, and Resnap re-shares only
// those — producing a snapshot pointer-identical to what a fresh
// Snapshot would build, and charging the cost model only for the tables
// actually re-shared, so a no-op re-snapshot is free in virtual time too.

// Resnap updates old to be a current snapshot of s, returning the
// snapshot to use in its place and the sharing stats for cost accounting.
// Every root slot where old differs from s is re-shared from s, and each
// non-nil table re-shared is charged, so old comes out pointer-identical
// to a fresh Snapshot whatever its history. A nil old is Snapshot.
func (s *Space) Resnap(old *Space) (*Space, CopyStats) {
	if old == nil {
		return s.Snapshot()
	}
	var st CopyStats
	for lo := 0; lo < tableEntries; lo += resnapSpan {
		if *(*[resnapSpan]*table)(s.root[lo:]) == *(*[resnapSpan]*table)(old.root[lo:]) {
			continue
		}
		for l1 := lo; l1 < lo+resnapSpan; l1++ {
			if t, o := s.root[l1], old.root[l1]; o != t {
				old.root[l1] = shareTable(t)
				old.frames.dropTable(o)
				if t != nil {
					st.TablesShared++
				}
			}
		}
	}
	return old, st
}

// resnapSpan is how many root slots Resnap compares at once before it
// looks at them one by one: a block compare runs at memequal speed, and
// most blocks of a re-snapshotted root have not changed.
const resnapSpan = 64
