package castore

// Garbage collection: refcounted mark from the store's own refs (plus
// whatever node keys the caller holds live in memory), then a sweep of
// everything unreferenced. Checkpoint chains make
// reachability the only safe criterion — a chunk put by one manifest is
// silently shared by every later (and every sibling) manifest that
// hashes the same content, so nothing short of a trace can know a chunk
// is dead. Incremental roots reference their parent root as a node
// child, so collecting with only the newest manifest of a chain as root
// still keeps every ancestor chunk the chain's deltas lean on.

import "fmt"

// CollectStats reports one Collect run.
type CollectStats struct {
	Roots        int   // root keys traced
	Live         int   // chunks reachable (kept)
	LiveRefs     int   // reference edges traversed (refcount total)
	Removed      int   // chunks swept
	RemovedBytes int64 // stored bytes reclaimed
}

// Collect removes every chunk reachable neither from a ref of s nor from
// extra — keys the caller keeps alive without a ref, such as a server's
// resident sessions. Roots must be node objects (manifests, checkpoint
// roots, build results); a ref whose value is not a key, or a root that
// is missing or unparsable, aborts the collection with its typed error
// before anything is deleted, so a bad root never triggers a destructive
// sweep.
func Collect(s Store, extra []Key) (CollectStats, error) {
	var st CollectStats
	names, err := s.Refs()
	if err != nil {
		return st, err
	}
	roots := append([]Key(nil), extra...)
	for _, name := range names {
		// A ref removed behind the store's back since it was listed reads
		// as the zero key, which no store holds: the trace below aborts,
		// which is the safe answer to a root set that moved mid-collection.
		key, _, err := s.Ref(name)
		if err != nil {
			return st, err
		}
		roots = append(roots, key)
	}
	refs := make(map[Key]int)
	var walk func(key Key) error
	walk = func(key Key) error {
		refs[key]++
		st.LiveRefs++
		if refs[key] > 1 {
			return nil // already traced
		}
		node, err := GetNode(s, key)
		if err != nil {
			return fmt.Errorf("castore: collect: trace %s: %w", key, err)
		}
		for _, leaf := range node.LeafRefs {
			refs[leaf]++
			st.LiveRefs++
		}
		for _, child := range node.NodeRefs {
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		st.Roots++
		if err := walk(r); err != nil {
			return st, err
		}
	}
	// Leaf references must exist for the surviving images to load; check
	// before sweeping so a truncated store surfaces as ChunkMissingError
	// rather than as a sweep that "succeeds" over a broken chain.
	for key, n := range refs {
		if n <= 0 {
			continue
		}
		ok, err := s.Has(key)
		if err != nil {
			return st, err
		}
		if !ok {
			return st, &ChunkMissingError{Key: key}
		}
	}
	st.Live = len(refs)
	var sweep []Key
	var sweepBytes int64
	err = s.Keys(func(key Key, info BlobInfo) error {
		if refs[key] == 0 {
			sweep = append(sweep, key)
			sweepBytes += int64(info.StoredSize)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	for _, key := range sweep {
		if err := s.Delete(key); err != nil {
			return st, err
		}
		st.Removed++
	}
	st.RemovedBytes = sweepBytes
	return st, nil
}
