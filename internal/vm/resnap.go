package vm

// Incremental snapshot maintenance.
//
// The kernel's Snap option used to rebuild a space's reference snapshot
// from scratch every time: free the old clone, re-share every mapped
// level-2 table, clear the dirty bitmaps. For the deterministic
// scheduler, which re-snapshots every runnable thread every quantum,
// that O(mapped tables) churn dominated round cost even when a thread
// had touched one table — or nothing at all.
//
// Resnap exploits the same identity proof Merge uses (dirty.go): when
// the existing snapshot is the space's most recent one and neither side
// has lost precision, the space's dirty bitmaps name exactly the level-2
// slots where space and snapshot can differ. Re-sharing only those slots
// produces a snapshot pointer-identical to what a fresh Snapshot would
// build — table by table — in O(dirtied tables) instead of O(mapped),
// and the cost model charges only the tables actually re-shared, so a
// no-op re-snapshot is free in virtual time too.

// CleanSince reports whether s is provably unchanged since snap was
// taken from it: snap is s's most recent snapshot (identity tokens
// match), s has recorded no modification since — at any granularity —
// and snap itself is untouched. The check is O(tables) pointer scans and
// never reads page data; false negatives are possible (the proof may be
// unavailable), false positives are not.
func (s *Space) CleanSince(snap *Space) bool {
	return snap != nil && s.snapID != 0 && snap.snapOf == s.snapID &&
		!s.anyDirty() && !snap.anyDirty()
}

// Resnap updates old to be a current snapshot of s, returning the
// snapshot to use in its place and the sharing stats for cost
// accounting. When old is provably s's most recent snapshot, only the
// level-2 tables s dirtied since are re-shared (and charged); if the
// proof is unavailable — no old snapshot, identity mismatch, precision
// lost to a whole-space operation, or a mutated old — it falls back to
// Free plus a full Snapshot. Both paths end with a snapshot
// pointer-identical to a fresh Snapshot's, a freshly stamped (space,
// snapshot) identity pair, and cleared dirty tracking, so Merge's
// dirty-guided walk works identically afterwards.
func (s *Space) Resnap(old *Space) (*Space, CopyStats) {
	if old == nil || old.snapOf == 0 || old.snapOf != s.snapID ||
		s.dirtyAll || old.anyDirty() {
		if old != nil {
			old.Free()
		}
		return s.Snapshot()
	}
	if s.snapOf != 0 && s.anyDirty() {
		// Mirrors Snapshot: s was itself a snapshot and has diverged from
		// its origin, so it is no longer a faithful reference for it.
		s.snapOf = 0
	}
	var st CopyStats
	for l1, db := range s.dirty {
		if db == nil {
			continue
		}
		if t := old.root[l1]; t != s.root[l1] {
			old.root[l1] = shareTable(s.root[l1])
			old.frames.dropTable(t)
		}
		if s.root[l1] != nil {
			st.TablesShared++
		}
		s.dirty[l1] = nil
	}
	id := snapshotIDs.Add(1)
	s.snapID = id
	old.snapOf = id
	return old, st
}
