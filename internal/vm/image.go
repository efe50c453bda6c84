package vm

// Checkpoint image encoding: a versioned, canonical serialization of a
// *forest* of spaces — typically every space's pagemap plus its merge
// snapshot for a whole kernel space tree.
//
// Spaces in this system are not independent byte arrays: pages and whole
// level-2 tables are shared copy-on-write between a space and its
// snapshot, between parent and child replicas, and across barrier
// generations. That sharing is semantically load-bearing — Merge selects
// pages by identity, Resnap re-shares only diverged tables, CopyFrom
// skips tables already pointer-shared, and the kernel's virtual-time
// cost model charges exactly the sharing that must be (re)established.
// A serialization that materialized each space independently would
// restore the same bytes but a different identity graph, and a resumed
// run would charge different virtual times than the uninterrupted one.
//
// The encoder therefore serializes the object graph itself: every
// distinct page and table is emitted once, in the deterministic order of
// first encounter along a canonical walk (spaces in Add order, level-1
// slots ascending, level-2 entries ascending), and spaces reference them
// by index. A space and its snapshot are thus automatically
// delta-encoded: everything unchanged since the snapshot is one shared
// table or page reference, and only diverged content carries payload.
// That sharing is also all Merge, CopyFrom and Resnap read to tell what
// changed, so they behave identically after a restore — including the
// pages a merge names and the virtual times they charge.
//
// Each space record ends in a dirty-slot section, and the image in a
// snapshot-link section, that an earlier change tracker filled. The
// encoder writes them empty (and each space's flags byte 0); the decoder
// still parses and bounds-checks them, then discards them, so images
// written with them keep loading.
//
// The encoding is canonical: identical forest state produces identical
// bytes, which is what makes golden-file format tests meaningful. The
// payload is guarded by a version byte (decoders reject newer versions
// with a typed error) and a CRC32 trailer (corruption and truncation are
// detected, also with typed errors).

import (
	"encoding/binary"
	"fmt"

	"repro/internal/imgenc"
)

// ImageVersion is the current forest-image format version. Decoders
// accept exactly the versions they know how to parse and reject anything
// newer with *ImageVersionError.
const ImageVersion = 1

// imageMagic introduces a forest image.
const imageMagic = "DVMF"

// ImageFormatError reports a structurally invalid, truncated or
// corrupted forest image.
type ImageFormatError struct {
	Offset int    // byte offset where decoding failed (best effort)
	Msg    string // what was wrong
}

func (e *ImageFormatError) Error() string {
	return fmt.Sprintf("vm: bad image at byte %d: %s", e.Offset, e.Msg)
}

// ImageVersionError reports an image written by a format version this
// decoder does not understand.
type ImageVersionError struct {
	Version byte // version found in the image
	Max     byte // newest version this decoder accepts
}

func (e *ImageVersionError) Error() string {
	return fmt.Sprintf("vm: image version %d not supported (max %d)", e.Version, e.Max)
}

// ForestEncoder serializes a set of spaces preserving their full COW
// sharing graph. Add every space, then Encode. The encoder only reads the
// spaces; they remain usable.
type ForestEncoder struct {
	spaces   []*Space
	spaceIdx map[*Space]int
}

// NewForestEncoder returns an empty encoder.
func NewForestEncoder() *ForestEncoder {
	return &ForestEncoder{spaceIdx: make(map[*Space]int)}
}

// Add registers a space for encoding and returns its index in the image.
// Adding the same space twice returns the same index.
func (e *ForestEncoder) Add(s *Space) int {
	if i, ok := e.spaceIdx[s]; ok {
		return i
	}
	i := len(e.spaces)
	e.spaces = append(e.spaces, s)
	e.spaceIdx[s] = i
	return i
}

// Encode serializes the registered forest.
func (e *ForestEncoder) Encode() []byte {
	// Pass 1: assign page and table ids in canonical first-encounter order.
	tableIdx := make(map[*table]int)
	pageIdx := make(map[*page]int)
	var tables []*table
	var pages []*page
	for _, s := range e.spaces {
		for _, t := range s.root {
			if t == nil {
				continue
			}
			if _, ok := tableIdx[t]; ok {
				continue
			}
			tableIdx[t] = len(tables)
			tables = append(tables, t)
			for pg := range t.pages {
				if _, ok := pageIdx[pg]; !ok {
					pageIdx[pg] = len(pages)
					pages = append(pages, pg)
				}
			}
		}
	}

	// Pass 2: emit, into a buffer sized once: the page section exactly,
	// each table as if every slot were mapped (7 KiB against the 16 KiB
	// the table itself occupies), the space and link sections exactly.
	size := len(imageMagic) + 1 +
		4 + len(pages)*PageSize +
		4 + len(tables)*(2+tableEntries*flatPTESize) +
		4 + // the space count; the spaces are added below
		4 + // the (empty) link section
		4 // imgenc.Seal's trailer
	for _, s := range e.spaces {
		size += 1 + 2 + 2 // flags, root-slot count, dirty-slot count
		for l1 := range s.root {
			if s.root[l1] != nil {
				size += 2 + 4
			}
		}
	}
	b := make([]byte, 0, size)
	b = append(b, imageMagic...)
	b = append(b, ImageVersion)

	b = binary.LittleEndian.AppendUint32(b, uint32(len(pages)))
	for _, pg := range pages {
		b = append(b, pg.data[:]...)
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(tables)))
	for _, t := range tables {
		count := len(b) // the entry count, known once the entries are out
		b = append(b, 0, 0)
		n := 0
		for l2 := range t.ptes {
			pe := t.ptes[l2]
			if !pe.mapped() {
				continue
			}
			n++
			b = binary.LittleEndian.AppendUint16(b, uint16(l2))
			b = append(b, byte(pe.perm))
			pid := 0
			if pe.pg != nil {
				id, ok := pageIdx[pe.pg]
				if !ok {
					// Pass 1 numbers pages by the occupancy map; this walk
					// reads the slots. A stale map must not alias page 1
					// into a checkpoint.
					panic("vm: page behind a slot its table's occupancy map does not list")
				}
				pid = id + 1
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(pid))
		}
		binary.LittleEndian.PutUint16(b[count:], uint16(n))
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.spaces)))
	for _, s := range e.spaces {
		b = append(b, 0) // flags
		n := 0
		for _, t := range s.root {
			if t != nil {
				n++
			}
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(n))
		for l1, t := range s.root {
			if t == nil {
				continue
			}
			b = binary.LittleEndian.AppendUint16(b, uint16(l1))
			b = binary.LittleEndian.AppendUint32(b, uint32(tableIdx[t]+1))
		}
		b = binary.LittleEndian.AppendUint16(b, 0) // dirty slots
	}

	b = binary.LittleEndian.AppendUint32(b, 0) // snapshot links
	return imgenc.Seal(b)
}

// flatPTESize is one mapped level-2 slot as the flat image lists it:
// slot u16, permissions u8, page id u32 (0 = demand-zero, else a 1-based
// index into the image's page list).
const flatPTESize = 2 + 1 + 4

// flatTable is one table's entries exactly as the image holds them:
// range-checked by openForest, aliasing the image, copied nowhere.
type flatTable []byte

func (t flatTable) entries() int { return len(t) / flatPTESize }

func (t flatTable) pte(j int) (l2 uint16, perm byte, pid uint32) {
	e := t[j*flatPTESize : (j+1)*flatPTESize]
	return binary.LittleEndian.Uint16(e), e[2], binary.LittleEndian.Uint32(e[3:])
}

// openForest is the one reader of the flat image's envelope and of its
// page and table sections: DecodeForest builds the object graph from
// what it returns, ChunkForest the chunks. The cursor is left at the
// space section; pages and tables alias the image; every slot index,
// permission and page id in the tables is in range.
func openForest(data []byte) (r *imgenc.Reader, pages [][]byte, tables []flatTable, err error) {
	r, err = imgenc.Open(data, imageMagic, ImageVersion,
		func(off int, msg string) error { return &ImageFormatError{Offset: off, Msg: msg} },
		func(v byte) error { return &ImageVersionError{Version: v, Max: ImageVersion} })
	if err != nil {
		return nil, nil, nil, err
	}
	pages = make([][]byte, r.Count(PageSize, "page"))
	for i := range pages {
		pages[i] = r.Take(PageSize)
	}
	tables = make([]flatTable, r.Count(2, "table")) // an empty table is its u16 entry count
	for i := 0; i < len(tables) && r.Err == nil; i++ {
		t := flatTable(r.Take(r.Count16(flatPTESize, "pte") * flatPTESize))
		for j := 0; j < t.entries(); j++ {
			switch l2, perm, pid := t.pte(j); {
			case l2 >= tableEntries:
				r.Failf("pte index %d out of range", l2)
			case Perm(perm)&^PermRW != 0:
				r.Failf("pte %d: permission %#x has bits outside %v", l2, perm, PermRW)
			case int(pid) > len(pages):
				r.Failf("page id %d out of range (%d pages)", pid, len(pages))
			}
		}
		tables[i] = t
	}
	return r, pages, tables, r.Err
}

// DecodeForest reconstructs the spaces of a forest image, restoring the
// exact page/table sharing graph. Corrupt or truncated input returns
// *ImageFormatError; input from a newer format returns
// *ImageVersionError. The spaces have no frame pool.
func DecodeForest(data []byte) ([]*Space, error) { return (*Frames)(nil).DecodeForest(data) }

// DecodeForest is the package's DecodeForest for a machine: the restored
// pages and tables come from f, and f is the restored spaces' pool.
func (f *Frames) DecodeForest(data []byte) ([]*Space, error) {
	r, pageBytes, flatTables, err := openForest(data)
	if err != nil {
		return nil, err
	}
	// Each page and table comes out of f with one reference, the
	// decoder's own, which it drops once the spaces hold theirs: an
	// object nothing else references (possible only in a hand-built
	// image) then goes back to f, and so does everything a failed decode
	// took.
	pages := make([]*page, len(pageBytes))
	for i, b := range pageBytes {
		pages[i] = f.pageFrom(b)
	}
	tables := make([]*table, len(flatTables))
	for i, ft := range flatTables {
		t := f.table(true)
		for j := 0; j < ft.entries(); j++ {
			l2, perm, pid := ft.pte(j)
			var pg *page
			if pid != 0 {
				pg = pages[pid-1]
			}
			t.set(int(l2), pte{pg: pg, perm: Perm(perm)})
		}
		for pg := range t.pages { // the entries that stand: a slot may be listed twice
			pg.refs.Add(1)
		}
		tables[i] = t
	}

	nSpaces := r.Count(5, "space") // flags, root-slot count, dirty-slot count
	spaces := make([]*Space, 0, nSpaces)
	for i := 0; i < nSpaces && r.Err == nil; i++ {
		s := f.NewSpace()
		r.U8() // flags, discarded
		n := int(r.U16())
		for j := 0; j < n && r.Err == nil; j++ {
			l1 := int(r.U16())
			tid := int(r.U32())
			if r.Err != nil {
				break
			}
			if l1 >= tableEntries || tid == 0 || tid > len(tables) {
				r.Failf("root slot %d -> table %d out of range", l1, tid)
				break
			}
			if old := s.root[l1]; old != nil {
				old.refs.Add(-1) // a slot listed twice keeps its last table
			}
			s.root[l1] = tables[tid-1]
			tables[tid-1].refs.Add(1)
		}
		n = int(r.U16()) // dirty slots, discarded: a slot and its 1024-bit map
		for j := 0; j < n && r.Err == nil; j++ {
			if l1 := int(r.U16()); r.Err == nil && l1 >= tableEntries {
				r.Failf("dirty slot %d out of range", l1)
				break
			}
			r.Take(tableEntries / 8)
		}
		spaces = append(spaces, s)
	}

	nLinks := r.Count(8, "link") // snapshot links, discarded
	for i := 0; i < nLinks && r.Err == nil; i++ {
		ci, ri := int(r.U32()), int(r.U32())
		if r.Err == nil && (ci >= len(spaces) || ri >= len(spaces)) {
			r.Failf("snapshot link %d -> %d out of range", ci, ri)
		}
	}
	if err = r.Done(); err != nil {
		for _, s := range spaces {
			s.Free()
		}
		spaces = nil
	}
	for _, pg := range pages {
		f.dropPage(pg)
	}
	for _, t := range tables {
		f.dropTable(t)
	}
	return spaces, err
}
