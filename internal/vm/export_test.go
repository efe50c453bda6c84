package vm

import "fmt"

// newPage and newPageFrom are the heap allocations the byte oracle
// (access_test.go) spells its page installs with, as the package did
// before pages came from a pool.
func newPage() *page { return (*Frames)(nil).page(true) }

func newPageFrom(b []byte) *page { return (*Frames)(nil).pageFrom(b) }

// CleanSince reports whether s is unchanged since snap was taken from it:
// the two still share every level-2 table. While they share a table its
// reference count is at least 2, so ownTable copies it before any write
// on either side and the pointers part. It is the root compare Resnap,
// CopyFrom and Merge make slot by slot, asked of the whole space at once;
// the tests use it to check that sharing survives what should keep it.
func (s *Space) CleanSince(snap *Space) bool {
	return snap != nil && s.root == snap.root
}

// checkFrames is the pool's safety invariant: every page and table f holds
// is there once, has no references, and is reachable from none of live —
// so nothing a space can still read or write is handed out again. The
// depot's frames are held to it as well, and to two more rules: none is
// also in f, and each is all zero, so a take from the depot is a new one.
func checkFrames(f *Frames, live []*Space) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	pages := make(map[*page]bool)
	for _, pg := range f.pages {
		if pages[pg] || pg.refs.Load() != 0 {
			return fmt.Errorf("pooled page %p: refs %d, pooled twice %v", pg, pg.refs.Load(), pages[pg])
		}
		pages[pg] = true
	}
	tables := make(map[*table]bool)
	for _, t := range f.tables {
		if tables[t] || t.refs.Load() != 0 {
			return fmt.Errorf("pooled table %p: refs %d, pooled twice %v", t, t.refs.Load(), tables[t])
		}
		tables[t] = true
	}
	if err := checkDepot(pages, tables); err != nil {
		return err
	}
	for si, s := range live {
		for l1, t := range s.root {
			if t == nil {
				continue
			}
			if tables[t] {
				return fmt.Errorf("space %d: table %d is in the pool or the depot", si, l1)
			}
			for l2, e := range t.ptes {
				if e.pg != nil && pages[e.pg] {
					return fmt.Errorf("space %d: page %d/%d is in the pool or the depot", si, l1, l2)
				}
			}
		}
	}
	return nil
}

// checkDepot holds the depot's frames to checkFrames' rules, adding them
// to the pages and tables already seen.
func checkDepot(pages map[*page]bool, tables map[*table]bool) error {
	depot.pages.mu.Lock()
	defer depot.pages.mu.Unlock()
	depot.tables.mu.Lock()
	defer depot.tables.mu.Unlock()
	for _, pg := range depot.pages.free {
		if pages[pg] || pg.refs.Load() != 0 || pg.data != [PageSize]byte{} {
			return fmt.Errorf("depot page %p: refs %d, held twice %v, cleared %v",
				pg, pg.refs.Load(), pages[pg], pg.data == [PageSize]byte{})
		}
		pages[pg] = true
	}
	for _, t := range depot.tables.free {
		cleared := t.occ == bitmap{} && t.rd == bitmap{} && t.wr == bitmap{} && t.ptes == [tableEntries]pte{}
		if tables[t] || t.refs.Load() != 0 || !cleared {
			return fmt.Errorf("depot table %p: refs %d, held twice %v, cleared %v", t, t.refs.Load(), tables[t], cleared)
		}
		tables[t] = true
	}
	if n := len(depot.pages.free); n > depot.pages.most {
		return fmt.Errorf("depot holds %d pages, more than the %d one release returned", n, depot.pages.most)
	}
	if n := len(depot.tables.free); n > depot.tables.most {
		return fmt.Errorf("depot holds %d tables, more than the %d one release returned", n, depot.tables.most)
	}
	return nil
}

// CheckDepot holds the depot to checkFrames' rules, for the tests outside
// the package that end kernel machines.
func CheckDepot() error { return checkDepot(make(map[*page]bool), make(map[*table]bool)) }

// drainDepot empties the depot, so a test sees only the frames it
// releases. The bound stays: it is the most one release ever returned.
func drainDepot() {
	depot.pages.mu.Lock()
	depot.pages.free = nil
	depot.pages.mu.Unlock()
	depot.tables.mu.Lock()
	depot.tables.free = nil
	depot.tables.mu.Unlock()
}

// depotLen reports how many pages and tables the depot holds.
func depotLen() (pages, tables int) {
	depot.pages.mu.Lock()
	defer depot.pages.mu.Unlock()
	depot.tables.mu.Lock()
	defer depot.tables.mu.Unlock()
	return len(depot.pages.free), len(depot.tables.free)
}

// poisonFrames scribbles over everything f holds — page bytes, and table
// slots that map a page of 0xA5s — so a recycled page or table that is
// not cleared where it must be shows in what a space reads.
func poisonFrames(f *Frames) {
	f.mu.Lock()
	defer f.mu.Unlock()
	junk := &page{}
	for i := range junk.data {
		junk.data[i] = 0xA5
	}
	for _, pg := range f.pages {
		pg.data = junk.data
	}
	var full table
	for l2 := range full.ptes {
		full.set(l2, pte{pg: junk, perm: PermRW})
	}
	for _, t := range f.tables {
		t.occ, t.rd, t.wr, t.ptes = full.occ, full.rd, full.wr, full.ptes
	}
}

// pooled reports how many pages and tables f holds.
func pooled(f *Frames) (pages, tables int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pages), len(f.tables)
}

// Footprint is the resident size of a forest of spaces, in objects: the
// distinct level-2 tables the spaces reference plus the distinct pages
// those tables back. Tables and pages shared copy-on-write — between a
// space and its snapshot, a parent and its replicas — count once, and
// lazy-zero mappings count nothing. It is the walk a machine's footprint
// was read with before its frame pool counted live frames (Frames.Live),
// and the oracle the live count is held to; it reads the occupancy map.
func Footprint(spaces []*Space) int {
	tables := make(map[*table]struct{})
	pages := make(map[*page]struct{})
	for _, s := range spaces {
		for _, t := range s.root {
			if t == nil {
				continue
			}
			if _, seen := tables[t]; seen {
				continue
			}
			tables[t] = struct{}{}
			for pg := range t.pages {
				pages[pg] = struct{}{}
			}
		}
	}
	return len(tables) + len(pages)
}

// FootprintWalk is Footprint as it was before tables carried an occupancy
// map: every slot of every distinct table read, none of the map. It is
// the oracle TestFootprintMatchesWalk holds Footprint to.
func FootprintWalk(spaces []*Space) int {
	tables := make(map[*table]struct{})
	pages := make(map[*page]struct{})
	for _, s := range spaces {
		for _, t := range s.root {
			if t == nil {
				continue
			}
			if _, seen := tables[t]; seen {
				continue
			}
			tables[t] = struct{}{}
			for j := range t.ptes {
				if pg := t.ptes[j].pg; pg != nil {
					pages[pg] = struct{}{}
				}
			}
		}
	}
	return len(tables) + len(pages)
}
