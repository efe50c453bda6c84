package fs

// Compact rewrites the image's extent area into its canonical layout:
// every live file's data is re-placed in inode order, end to end from the
// start of the extent area, every extent capacity is reset to the
// canonical capacity for the file's current size, and all other data
// bytes are zeroed. Because the layout afterwards is a pure function of
// the inode table's contents, every replica that performed the same
// operation history computes a bit-identical image — which is what lets
// the benchmarks assert whole-image checksums across configurations. The
// free list ends empty: everything past the last extent is the cursor's.
//
// It also frees tombstone slots (scrubbing their names), so it runs only
// at quiescent synchronization points: after a replica has reconciled
// (or stamped) and no forked child is still working against the old
// image. A child replica forked before a deletion would otherwise lose
// the record that propagates it — the master of a fork round calls
// Compact after collecting every child, never between forks.
func (f *FS) Compact() (CompactStats, error) {
	defer f.unlock()()
	var st CompactStats
	for _, e := range f.readFreeList() {
		st.FreeBytesBefore += int64(e.length)
	}

	// Gather every live file's extent, in inode order, into host
	// memory, and lay it out at the next canonical offset. The image is
	// bounded by the address space, so this is the simple,
	// obviously-overlap-free way to relocate extents. Nothing is mutated
	// yet: canonical capacities never exceed the extents' old ones, so a
	// layout past the image's end means a corrupt image — guard rather
	// than destroy.
	type item struct {
		ino            int
		oldOff, newOff uint32
		size, cap      uint32
		data           []byte
	}
	var items []item
	size := uint32(f.size())
	cursor := uint32(dataStart)
	var flags [NumInodes]uint32
	f.column(iFlags, &flags)
	for ino := 1; ino < NumInodes; ino++ {
		fl := flags[ino]
		if fl&flagExists == 0 || fl&flagDir != 0 {
			continue
		}
		sz := f.iGet(ino, iSize)
		it := item{ino: ino, oldOff: f.iGet(ino, iExtOff), size: sz, cap: f.canonicalCap(sz)}
		if sz > 0 {
			it.data = make([]byte, sz)
			f.gbytes(it.oldOff, it.data)
		}
		if it.cap != 0 {
			if !inside(size, cursor, it.cap) {
				return st, ErrNoSpace
			}
			it.newOff = cursor
			cursor += it.cap
		}
		items = append(items, it)
	}

	f.column(iFlags, &flags) // freeSlot scrubs only the slot it is given
	for ino := 1; ino < NumInodes; ino++ {
		if flags[ino]&flagTomb != 0 {
			f.freeSlot(ino) // tombstones hold no extent by invariant
			st.Tombs++
		}
	}

	// Zero the whole extent area, then write the live data back at its
	// canonical offsets. Zero-first makes freed space and extent tails
	// read as zeros — the canonical image.
	zero := make([]byte, 64<<10)
	for off := uint32(dataStart); off < size; {
		n := min(uint32(len(zero)), size-off)
		f.pbytes(off, zero[:n])
		off += n
	}
	for _, it := range items {
		if it.size > 0 {
			f.pbytes(it.newOff, it.data)
		}
		if it.newOff != it.oldOff || it.cap != f.iGet(it.ino, iExtCap) {
			st.Moved++
			st.MovedBytes += int64(it.size)
		}
		f.iPut(it.ino, iExtOff, it.newOff)
		f.iPut(it.ino, iExtCap, it.cap)
		st.Live++
	}

	f.writeFreeList(nil)
	f.pu32(sbCursor, cursor)
	f.pu32(sbCompacts, f.gu32(sbCompacts)+1)
	return st, nil
}

// CompactStats reports what a Compact pass did.
type CompactStats struct {
	Live            int   // live extents laid out
	Moved           int   // extents whose offset or capacity changed
	MovedBytes      int64 // bytes rewritten because of moves
	Tombs           int   // tombstone slots reclaimed
	FreeBytesBefore int64 // free-list bytes before the pass
}
