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

// CleanSince reports whether s is unchanged since snap was taken from it:
// the two still share every level-2 table. While they share a table its
// reference count is at least 2, so ownTable copies it before any write
// on either side and the pointers part. The check is a compare of the two
// roots and never reads page data.
func (s *Space) CleanSince(snap *Space) bool {
	return snap != nil && s.root == snap.root
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
	var st CopyStats
	for l1 := range s.root {
		if t, o := s.root[l1], old.root[l1]; o != t {
			old.root[l1] = shareTable(t)
			old.frames.dropTable(o)
			if t != nil {
				st.TablesShared++
			}
		}
	}
	return old, st
}
