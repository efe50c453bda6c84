package fs

import (
	"fmt"
	"sort"
	"strings"
)

// Conflict names an entry (by full path) whose reconciliation found
// changes on both sides.
type Conflict struct {
	Name string
}

func (c Conflict) String() string { return fmt.Sprintf("conflict(%s)", c.Name) }

// ReconcileFrom folds the changes a child replica made since its fork
// stamp into this (the parent's) replica. Both images must live in the
// same address space: the runtime first copies the child's file system
// region into a scratch area of the parent space with a Get, exactly as
// §4.2 describes, then attaches an FS handle to the scratch copy.
//
// Reconciliation is keyed by full path, never by inode number — the two
// replicas may have laid out their tables and extents completely
// differently (each ran its own allocator, perhaps its own Compact).
// Per-entry outcome, comparing each side's version against the child's
// recorded fork version (the common ancestor):
//
//   - child unchanged            → parent's copy stands;
//   - only child changed         → child's entry (create, bytes, or
//     deletion) is adopted, intermediate directories created as needed;
//   - both changed, append-only  → the child's appended tail is
//     concatenated onto the parent's copy; never a conflict;
//   - both created a directory   → directories merge trivially;
//   - both changed otherwise     → the parent's copy stands, the entry
//     is marked conflicted, and the conflict is reported. Type clashes
//     (file vs directory at one path) count as divergence.
//
// Directory deletions are adopted only once the parent's directory is
// empty; they are processed after all other entries, deepest path
// first, so a child that emptied and removed a tree propagates cleanly
// in one pass.
//
// After reconciliation the parent either discards the child replica
// (wait) or pushes its merged image back to the child, which must then
// StampFork again (two-way sync).
func (f *FS) ReconcileFrom(child *FS) ([]Conflict, error) {
	defer f.unlock()()
	var conflicts []Conflict
	type dirTomb struct {
		ino   int
		path  string
		depth int
	}
	var dirTombs []dirTomb
	// The child's flags are read up front: nothing below stores into the
	// child. A pass that stops on an error has been charged for the whole
	// column, not for the slots up to the failing one.
	var cflags [NumInodes]uint32
	child.column(iFlags, &cflags)
	for ino := 1; ino < NumInodes; ino++ {
		cfl := cflags[ino]
		if cfl&(flagExists|flagTomb) == 0 {
			continue
		}
		if child.iGet(ino, iVersion) == child.iGet(ino, iForkVersion) {
			continue // child unchanged: parent's state stands
		}
		path := child.pathOf(ino)
		if cfl&flagExists == 0 && cfl&flagDir != 0 {
			// Tombstones keep the directory bit exactly so deletions of
			// directories can be deferred behind their (tombstoned)
			// contents and ordered deepest-first.
			dirTombs = append(dirTombs, dirTomb{ino, path, strings.Count(path, "/")})
			continue
		}
		c, err := f.reconcileEntry(child, ino, path)
		if err != nil {
			return conflicts, err
		}
		conflicts = append(conflicts, c...)
	}
	sort.Slice(dirTombs, func(i, j int) bool {
		if dirTombs[i].depth != dirTombs[j].depth {
			return dirTombs[i].depth > dirTombs[j].depth
		}
		return dirTombs[i].path < dirTombs[j].path
	})
	for _, dt := range dirTombs {
		c, err := f.reconcileEntry(child, dt.ino, dt.path)
		if err != nil {
			return conflicts, err
		}
		conflicts = append(conflicts, c...)
	}
	return conflicts, nil
}

// reconcileEntry applies the three-way outcome for one child entry.
func (f *FS) reconcileEntry(child *FS, cIno int, path string) ([]Conflict, error) {
	cfl := child.iGet(cIno, iFlags)
	pIno := f.lookupAny(path)
	parentChanged := true
	if pIno >= 0 {
		parentChanged = f.iGet(pIno, iVersion) != child.iGet(cIno, iForkVersion)
	} else if child.iGet(cIno, iForkVersion) == 0 {
		// New in the child, never seen by the parent.
		parentChanged = false
	}

	switch {
	case !parentChanged:
		clashPath, err := f.adopt(pIno, child, cIno, path)
		if err != nil {
			return nil, err
		}
		if clashPath != "" {
			// The conflict flag sits on clashPath (the entry itself, or
			// the ancestor whose type blocked the adoption): report that
			// path, so the documented re-create recovery targets the
			// entry actually flagged.
			return []Conflict{{Name: clashPath}}, nil
		}
		return nil, nil

	case cfl&flagExists != 0 && pIno >= 0 &&
		cfl&flagAppendOnly != 0 && f.iGet(pIno, iFlags)&flagAppendOnly != 0 &&
		f.iGet(pIno, iFlags)&(flagExists|flagConflict) == flagExists:
		// Appending into an already-conflicted file would bury the
		// child's bytes in an entry whose documented recovery truncates
		// them away; a conflicted parent falls through to the
		// divergence branch so the change is reported instead.
		return nil, f.mergeAppends(pIno, child, cIno)

	case cfl&(flagExists|flagDir) == flagExists|flagDir && pIno >= 0 &&
		f.iGet(pIno, iFlags)&(flagExists|flagDir) == flagExists|flagDir:
		// Both sides hold a live directory at this path (e.g. both
		// created it since the fork): directories have no content of
		// their own, so they merge trivially. Keep versions monotone.
		if cv := child.iGet(cIno, iVersion); cv > f.iGet(pIno, iVersion) {
			f.iPut(pIno, iVersion, cv)
		}
		return nil, nil

	default:
		// True divergence: keep the parent's copy, flag the entry.
		if pIno >= 0 {
			f.iPut(pIno, iFlags, f.iGet(pIno, iFlags)|flagConflict)
			f.bump(pIno)
			return []Conflict{{Name: path}}, nil
		}
		// Parent has nothing at the path (e.g. it deleted an enclosing
		// directory): recreate as a conflicted file so the divergence
		// is visible and recoverable. An ancestor type clash along the
		// way is reported at the ancestor instead.
		clashPath, err := f.adoptPlaceholder(path)
		if err != nil {
			return nil, err
		}
		if clashPath != "" {
			return []Conflict{{Name: clashPath}}, nil
		}
		return []Conflict{{Name: path}}, nil
	}
}

// adopt replaces the parent's state for one entry with the child's
// (including adoption of a deletion). pIno may be -1 if the parent has
// no slot at the path yet. A type clash (adopting over a live entry of
// the other kind, over a non-empty directory, or under an ancestor that
// is not a traversable directory) flags the offending parent entry
// conflicted and returns its path as clashPath, so callers report a
// conflict at the entry that actually needs resolving.
func (f *FS) adopt(pIno int, child *FS, cIno int, path string) (clashPath string, err error) {
	cfl := child.iGet(cIno, iFlags)
	cVersion := child.iGet(cIno, iVersion)

	if cfl&flagExists == 0 {
		// Child deleted the entry.
		if pIno < 0 || f.iGet(pIno, iFlags)&flagExists == 0 {
			return "", nil
		}
		pfl := f.iGet(pIno, iFlags)
		if pfl&flagDir != 0 && f.dirHasLive(pIno) {
			// The parent still has live entries inside: deleting the
			// directory out from under them would orphan parent-side
			// state, so surface the divergence instead.
			f.iPut(pIno, iFlags, pfl|flagConflict)
			f.bump(pIno)
			return path, nil
		}
		f.freeExtent(f.iGet(pIno, iExtOff), f.iGet(pIno, iExtCap))
		f.iPut(pIno, iExtOff, 0)
		f.iPut(pIno, iExtCap, 0)
		f.iPut(pIno, iFlags, flagTomb|(pfl&flagDir))
		f.iPut(pIno, iSize, 0)
		f.iPut(pIno, iVersion, cVersion)
		return "", nil
	}

	if cfl&flagDir != 0 {
		// Child created (or revived) a directory.
		if pIno >= 0 {
			pfl := f.iGet(pIno, iFlags)
			if pfl&flagExists != 0 && pfl&flagDir == 0 {
				f.iPut(pIno, iFlags, pfl|flagConflict)
				f.bump(pIno)
				return path, nil
			}
			if pfl&flagConflict != 0 {
				// An earlier entry of this very pass flagged the slot
				// (e.g. a divergent deletion): reviving it would launder
				// the recorded conflict away.
				return path, nil
			}
			if pfl&flagTomb != 0 {
				f.iPut(pIno, iFlags, flagExists|flagDir)
				f.iPut(pIno, iSize, 0)
				f.iPut(pIno, iVersion, cVersion)
			}
			return "", nil
		}
		ino, clashPath, err := f.mkdirAllAdopt(path)
		if err != nil || clashPath != "" {
			return clashPath, err
		}
		f.iPut(ino, iVersion, cVersion)
		return "", nil
	}

	// Child created or rewrote a regular file.
	fresh := false
	if pIno >= 0 {
		pfl := f.iGet(pIno, iFlags)
		if pfl&flagExists != 0 && pfl&flagDir != 0 {
			f.iPut(pIno, iFlags, pfl|flagConflict)
			f.bump(pIno)
			return path, nil
		}
		if pfl&flagConflict != 0 {
			return path, nil // already flagged this pass: don't launder it
		}
	} else {
		var dir int
		var leaf string
		dir, leaf, clashPath, err = f.adoptParent(path)
		if err != nil || clashPath != "" {
			return clashPath, err
		}
		// lookupAny missed the path only because its directory chain
		// was dead; now that adoptParent revived it, a tombstone for
		// this very (dir, name) may have resurfaced — reuse it, or a
		// fresh slot would break the one-slot-per-entry invariant and
		// leave duplicate paths behind.
		if existing := f.childIn(dir, leaf, flagExists|flagTomb); existing >= 0 {
			if f.iGet(existing, iFlags)&flagConflict != 0 {
				return path, nil
			}
			if f.iGet(existing, iVersion) != child.iGet(cIno, iForkVersion) {
				// The resurfaced slot is version evidence that the
				// parent changed this path too (it created and deleted
				// it behind the dead directory): a genuine both-sides
				// divergence, which must conflict exactly as it would
				// have had lookupAny seen the slot — not silently adopt
				// and regress the version.
				f.iPut(existing, iFlags, f.iGet(existing, iFlags)|flagConflict)
				f.bump(existing)
				return path, nil
			}
			pIno = existing
		} else {
			pIno = f.freeInode()
			if pIno < 0 {
				return "", ErrNameTaken
			}
			fresh = true
			f.iPut(pIno, iParent, uint32(dir)) // parent before name: setName indexes under it
			f.setName(pIno, leaf)
			f.iPut(pIno, iExtOff, 0)
			f.iPut(pIno, iExtCap, 0)
			f.iPut(pIno, iForkVersion, 0)
			f.iPut(pIno, iForkSize, 0)
		}
	}
	size := child.iGet(cIno, iSize)
	if err := f.ensureCap(pIno, size); err != nil {
		if fresh {
			// Never leave a half-adopted entry behind: the slot was
			// invisible (flags still zero) and goes back to the pool.
			f.freeSlot(pIno)
		}
		return "", err
	}
	if size > 0 {
		buf := make([]byte, size)
		child.gbytes(child.iGet(cIno, iExtOff), buf)
		f.pbytes(f.iGet(pIno, iExtOff), buf)
	}
	f.iPut(pIno, iSize, size)
	f.iPut(pIno, iVersion, cVersion)
	// Flags last: the entry becomes visible only once fully formed.
	f.iPut(pIno, iFlags, flagExists|(cfl&flagAppendOnly))
	return "", nil
}

// adoptParent resolves path's parent directory for adoption, creating or
// reviving intermediate directories, and returns it with path's leaf.
func (f *FS) adoptParent(path string) (dir int, leaf string, clashPath string, err error) {
	leaf = path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		dir, clashPath, err = f.mkdirAllAdopt(path[:i])
		if err != nil || clashPath != "" {
			return 0, "", clashPath, err
		}
		leaf = path[i+1:]
	}
	return dir, leaf, "", nil
}

// adoptPlaceholder recreates a path as an empty conflicted file,
// creating intermediate directories as needed. An ancestor type clash
// is returned as that ancestor's path (already flagged); the
// placeholder is then skipped — the clash carries the conflict.
func (f *FS) adoptPlaceholder(path string) (clashPath string, err error) {
	dir, leaf, clashPath, err := f.adoptParent(path)
	if err != nil || clashPath != "" {
		return clashPath, err
	}
	_, err = f.createIn(dir, leaf, flagConflict)
	return "", err
}

// mkdirAllAdopt walks path creating missing directories (reviving
// tombstones), for reconciliation's use. A component occupied by a live
// file is a type clash: the file is flagged conflicted and its path
// returned. A component whose slot is already marked conflicted —
// including a tombstone flagged earlier in the same pass — is a clash
// too: reviving it would erase the recorded divergence.
func (f *FS) mkdirAllAdopt(path string) (ino int, clashPath string, err error) {
	parts, err := splitPath(path)
	if err != nil {
		return -1, "", err
	}
	dir := 0
	for idx, c := range parts {
		next := f.childIn(dir, c, flagExists|flagTomb)
		switch {
		case next < 0:
			if next, err = f.createIn(dir, c, flagDir); err != nil {
				return -1, "", err
			}
		case f.iGet(next, iFlags)&flagConflict != 0:
			return -1, strings.Join(parts[:idx+1], "/"), nil
		case f.iGet(next, iFlags)&flagTomb != 0:
			f.iPut(next, iFlags, flagExists|flagDir)
			f.iPut(next, iSize, 0)
			f.bump(next)
		case f.iGet(next, iFlags)&flagDir == 0:
			f.iPut(next, iFlags, f.iGet(next, iFlags)|flagConflict)
			f.bump(next)
			return -1, strings.Join(parts[:idx+1], "/"), nil
		}
		dir = next
	}
	return dir, "", nil
}

// mergeAppends handles the append-only case of §4.3: both sides
// appended, so the parent keeps its own content and concatenates the
// bytes the child wrote since the fork. Each replica thus accumulates
// all writers' output, though different replicas may see different
// interleavings.
func (f *FS) mergeAppends(pIno int, child *FS, cIno int) error {
	forkSize := child.iGet(cIno, iForkSize)
	childSize := child.iGet(cIno, iSize)
	if childSize <= forkSize {
		return nil // nothing actually appended (e.g. metadata-only change)
	}
	tail := make([]byte, childSize-forkSize)
	child.gbytes(child.iGet(cIno, iExtOff)+forkSize, tail)
	pSize := f.iGet(pIno, iSize)
	// 64-bit first: both sides can hold near-ceiling files, and a
	// wrapped 32-bit sum would slip past ensureCap and write far beyond
	// the extent — the cross-extent corruption checkRange exists to stop.
	if uint64(pSize)+uint64(len(tail)) > f.maxSize() {
		return ErrNoSpace
	}
	if err := f.ensureCap(pIno, pSize+uint32(len(tail))); err != nil {
		return err
	}
	f.pbytes(f.iGet(pIno, iExtOff)+pSize, tail)
	f.iPut(pIno, iSize, pSize+uint32(len(tail)))
	v := f.iGet(pIno, iVersion)
	if cv := child.iGet(cIno, iVersion); cv > v {
		v = cv
	}
	f.iPut(pIno, iVersion, v+1)
	return nil
}
