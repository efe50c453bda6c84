package fs

// Compact rewrites the image's extent area into its canonical layout:
// every live file's data is re-placed in inode order at the lowest
// offsets the region chain allows, every extent capacity is reset to the
// canonical capacity for the file's current size, and all other data
// bytes are zeroed. Because the layout afterwards is a pure function of
// the inode table's contents, every replica that performed the same
// operation history computes a bit-identical image — which is what lets
// the benchmarks assert whole-image checksums across configurations.
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
	// memory. The image is bounded by the address space, so this is the
	// simple, obviously-overlap-free way to relocate extents.
	type item struct {
		ino       int
		oldOff    uint32
		size, cap uint32
		data      []byte
	}
	var items []item
	var caps []uint32
	var flags [NumInodes]uint32
	f.column(iFlags, &flags)
	for ino := 1; ino < NumInodes; ino++ {
		fl := flags[ino]
		if fl&flagExists == 0 || fl&flagDir != 0 {
			continue
		}
		size := f.iGet(ino, iSize)
		it := item{ino: ino, oldOff: f.iGet(ino, iExtOff), size: size, cap: f.canonicalCap(size)}
		if size > 0 {
			it.data = make([]byte, size)
			f.gbytes(it.oldOff, it.data)
		}
		items = append(items, it)
		caps = append(caps, it.cap)
	}

	// Lay the extents out before mutating anything: placement is pure
	// arithmetic over the (unchanged) region chain, and canonical
	// capacities never exceed the extents' old ones, so failure here
	// means a corrupt image — guard rather than destroy.
	regs := f.regions()
	offs, gaps, cursor, ok := placeSeq(regs, caps)
	if !ok {
		return st, ErrNoSpace
	}

	f.column(iFlags, &flags) // freeSlot scrubs only the slot it is given
	for ino := 1; ino < NumInodes; ino++ {
		if flags[ino]&flagTomb != 0 {
			f.freeSlot(ino) // tombstones hold no extent by invariant
			st.Tombs++
		}
	}

	// Zero every region's data area, then write the live data back at
	// its canonical offsets. Zero-first makes freed space, extent tails
	// and region remainders all read as zeros — the canonical image.
	zero := make([]byte, 64<<10)
	for i, r := range regs {
		end := r.off + r.length
		for off := regionDataStart(i, r); off < end; {
			n := uint32(len(zero))
			if off+n > end {
				n = end - off
			}
			f.pbytes(off, zero[:n])
			off += n
		}
	}
	for k, it := range items {
		if it.size > 0 {
			f.pbytes(offs[k], it.data)
		}
		if offs[k] != it.oldOff || it.cap != f.iGet(it.ino, iExtCap) {
			st.Moved++
			st.MovedBytes += int64(it.size)
		}
		f.iPut(it.ino, iExtOff, offs[k])
		f.iPut(it.ino, iExtCap, it.cap)
		st.Live++
	}

	f.writeFreeList(gaps)
	f.pu32(sbCursor, cursor)
	f.pu32(sbCompacts, f.gu32(sbCompacts)+1)
	for _, e := range gaps {
		st.FreeBytesAfter += int64(e.length)
	}
	return st, nil
}

// CompactStats reports what a Compact pass did.
type CompactStats struct {
	Live            int   // live extents laid out
	Moved           int   // extents whose offset or capacity changed
	MovedBytes      int64 // bytes rewritten because of moves
	Tombs           int   // tombstone slots reclaimed
	FreeBytesBefore int64 // free-list bytes before the pass
	FreeBytesAfter  int64 // free-list bytes after (region remainders only)
}

// placeSeq computes the canonical layout: each capacity in order is
// placed best-fit into a gap left by an earlier region remainder, else
// bump-allocated; a region tail too small for the next extent becomes a
// gap. It mirrors allocExtent's rules minus growth, so the canonical
// layout is reachable by the ordinary allocator too.
func placeSeq(regs []extent, caps []uint32) (offs []uint32, gaps []extent, cursor uint32, ok bool) {
	region := 0
	cursor = regionDataStart(0, regs[0])
	offs = make([]uint32, len(caps))
	for k, c := range caps {
		if c == 0 {
			continue
		}
		best := -1
		for i, g := range gaps {
			if g.length >= c && (best < 0 || g.length < gaps[best].length) {
				best = i
			}
		}
		if best >= 0 {
			offs[k] = gaps[best].off
			if gaps[best].length == c {
				gaps = append(gaps[:best], gaps[best+1:]...)
			} else {
				gaps[best].off += c
				gaps[best].length -= c
			}
			continue
		}
		for {
			end := regs[region].off + regs[region].length
			if uint64(cursor)+uint64(c) <= uint64(end) {
				break
			}
			if region+1 >= len(regs) {
				return nil, nil, 0, false
			}
			if end > cursor {
				gaps = append(gaps, extent{cursor, end - cursor})
			}
			region++
			cursor = regionDataStart(region, regs[region])
		}
		offs[k] = cursor
		cursor += c
	}
	return offs, gaps, cursor, true
}
