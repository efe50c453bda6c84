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
// A table lists what it maps, not slot by slot: its mapped slots as
// maximal runs of one permission, then the slots it backs as runs of
// consecutive slots holding consecutive page ids. A table that maps 1024
// demand-zero slots and backs two is one run and at most two backed
// runs, so an image costs what the forest backs, not what it maps, and so
// does every walk over it — the encoder's, the decoder's (which installs
// a run with one table.setRange) and the chunker's (chunk.go). A table
// that backs every slot with pages first met there is one backed run.
//
// Version 1 listed every mapped slot with its page id, gave each space a
// flags byte and a dirty-slot section and the image a snapshot-link
// section, all written empty since an earlier change tracker was
// retired. openForest still reads it, through one branch that rewrites
// its tables and spaces in the current grammar, so images written with
// it keep loading.
//
// The encoding is canonical: identical forest state produces identical
// bytes, which is what makes golden-file format tests meaningful. The
// payload is guarded by a version byte (decoders reject newer versions
// with a typed error) and a CRC32 trailer (corruption and truncation are
// detected, also with typed errors).

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/imgenc"
)

// ImageVersion is the current forest-image format version. Decoders
// accept it and version 1, and reject anything newer with
// *ImageVersionError.
const ImageVersion = 2

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

// Encode serializes the registered forest. One walk — spaces in Add
// order, level-1 slots ascending, each table's backed slots ascending —
// numbers tables and pages by first encounter and writes every section
// but the pages, whose count it only knows at the end.
func (e *ForestEncoder) Encode() []byte {
	tableIdx := make(map[*table]int)
	pageIdx := make(map[*page]int)
	var img forestImage
	var sect []byte // the tables' sections back to back; a grown buffer leaves those before it intact
	img.spaces = binary.LittleEndian.AppendUint32(nil, uint32(len(e.spaces)))
	for _, s := range e.spaces {
		count := len(img.spaces) // the root-slot count, known once they are out
		img.spaces = append(img.spaces, 0, 0)
		n := 0
		for l1, t := range s.root {
			if t == nil {
				continue
			}
			id, ok := tableIdx[t]
			if !ok {
				id = len(img.tables)
				tableIdx[t] = id
				start := len(sect)
				sect = t.appendRuns(sect)
				mid := len(sect)
				sect, img.pages = t.appendBacked(sect, pageIdx, img.pages)
				img.tables = append(img.tables, tableImage{runs: sect[start:mid:mid], backed: sect[mid:len(sect):len(sect)]})
			}
			n++
			img.spaces = binary.LittleEndian.AppendUint16(img.spaces, uint16(l1))
			img.spaces = binary.LittleEndian.AppendUint32(img.spaces, uint32(id+1))
		}
		binary.LittleEndian.PutUint16(img.spaces[count:], uint16(n))
	}
	return img.seal()
}

// appendRuns appends t's runs section: the mapped slots as maximal runs
// of one permission, found a bitmap word at a time.
func (t *table) appendRuns(b []byte) []byte {
	count := len(b)
	b = append(b, 0, 0)
	n := 0
	for l2 := t.first(0, t.mappedIn); l2 < tableEntries; l2 = t.first(l2, t.mappedIn) {
		perm := t.ptes[l2].perm
		end := t.first(l2, func(w int) uint64 { return ^t.mappedWith(w, perm) })
		b = binary.LittleEndian.AppendUint16(b, uint16(l2))
		b = binary.LittleEndian.AppendUint16(b, uint16(end-l2))
		b = append(b, byte(perm))
		n++
		l2 = end
	}
	binary.LittleEndian.PutUint16(b[count:], uint16(n))
	return b
}

// appendBacked appends t's backed section, numbering the pages it meets
// for the first time after those in pages.
func (t *table) appendBacked(b []byte, pageIdx map[*page]int, pages [][]byte) ([]byte, [][]byte) {
	w := newBackedRuns(b)
	for i, word := range t.occ {
		for ; word != 0; word &= word - 1 {
			l2 := i<<6 | bits.TrailingZeros64(word)
			pg := t.ptes[l2].pg
			id, ok := pageIdx[pg]
			if !ok {
				id = len(pages)
				pageIdx[pg] = id
				pages = append(pages, pg.data[:])
			}
			w.add(l2, uint32(id+1))
		}
	}
	return w.end(), pages
}

// backedRuns appends a backed section slot by ascending slot, extending
// the last run while a slot continues it with the next page id.
type backedRuns struct {
	b     []byte
	count int // where the section's run count is
	n     int // runs so far
	next  int // the slot that would continue the last run
	pid   uint32
}

func newBackedRuns(b []byte) *backedRuns {
	return &backedRuns{b: append(b, 0, 0), count: len(b)}
}

func (w *backedRuns) add(l2 int, pid uint32) {
	if w.n > 0 && l2 == w.next && pid == w.pid {
		n := w.b[len(w.b)-backedSize+2:]
		binary.LittleEndian.PutUint16(n, binary.LittleEndian.Uint16(n)+1)
	} else {
		w.b = binary.LittleEndian.AppendUint16(w.b, uint16(l2))
		w.b = binary.LittleEndian.AppendUint16(w.b, 1)
		w.b = binary.LittleEndian.AppendUint32(w.b, pid)
		w.n++
	}
	w.next, w.pid = l2+1, pid+1
}

func (w *backedRuns) end() []byte {
	binary.LittleEndian.PutUint16(w.b[w.count:], uint16(w.n))
	return w.b
}

// first returns the first slot at or after lo whose bit word sets, or
// tableEntries when there is none.
func (t *table) first(lo int, word func(w int) uint64) int {
	for w := lo >> 6; w < len(t.occ); w++ {
		if m := word(w) & slotsIn(w, lo, tableEntries); m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	return tableEntries
}

// mappedIn is word w of the slots t maps.
func (t *table) mappedIn(w int) uint64 { return t.occ[w] | t.rd[w] | t.wr[w] }

// mappedWith is word w of the slots t maps with permission perm.
func (t *table) mappedWith(w int, perm Perm) uint64 {
	rd, wr := t.rd[w], t.wr[w]
	if perm&PermR == 0 {
		rd = ^rd
	}
	if perm&PermW == 0 {
		wr = ^wr
	}
	return t.mappedIn(w) & rd & wr
}

// Section record sizes: a run is its first slot u16, its length u16 and
// its permission u8; a backed run is its first slot u16, its length u16
// and its first slot's page id u32 (a 1-based index into the image's page
// list), each later slot holding the next page; a root slot is its
// level-1 index u16 and its table id u32 (1-based, likewise). Each
// section is a u16 record count, then the records.
const (
	runSize      = 2 + 2 + 1
	backedSize   = 2 + 2 + 4
	rootSlotSize = 2 + 4
)

// forestImage is a flat image cut into its sections, each checked. What
// openForest returns from a current image aliases it; Encode and
// UnchunkForest assemble one from their own parts, and seal writes it.
type forestImage struct {
	pages  [][]byte // PageSize bytes each
	tables []tableImage
	spaces []byte // the space section: a u32 space count, then each space's root slots
}

// tableImage is one table's two sections, each with its count in front.
type tableImage struct {
	runs, backed []byte
}

func (t tableImage) nruns() int   { return int(binary.LittleEndian.Uint16(t.runs)) }
func (t tableImage) nbacked() int { return int(binary.LittleEndian.Uint16(t.backed)) }

func (t tableImage) run(j int) (l2, n int, perm Perm) {
	e := t.runs[2+j*runSize:]
	return int(binary.LittleEndian.Uint16(e)), int(binary.LittleEndian.Uint16(e[2:])), Perm(e[4])
}

func (t tableImage) backedRun(j int) (l2, n int, pid uint32) {
	e := t.backed[2+j*backedSize:]
	return int(binary.LittleEndian.Uint16(e)), int(binary.LittleEndian.Uint16(e[2:])), binary.LittleEndian.Uint32(e[4:])
}

// check reports what is wrong with a table's sections, or nil: runs and
// backed runs must each be non-empty, ascending and disjoint, and inside
// the table; runs may hold no permission bit outside PermRW; every backed
// slot must lie in a run and name one of the image's npages pages.
func (t tableImage) check(npages int) error {
	end := 0
	for j := range t.nruns() {
		switch l2, n, perm := t.run(j); {
		case n == 0:
			return fmt.Errorf("empty run at slot %d", l2)
		case l2 < end:
			return fmt.Errorf("run at slot %d overlaps or precedes the one before", l2)
		case l2+n > tableEntries:
			return fmt.Errorf("run [%d,+%d) ends past slot %d", l2, n, tableEntries-1)
		case perm&^PermRW != 0:
			return fmt.Errorf("run at slot %d: permission %#x has bits outside %v", l2, uint8(perm), PermRW)
		default:
			end = l2 + n
		}
	}
	end, j := 0, 0
	for k := range t.nbacked() {
		l2, n, pid := t.backedRun(k)
		switch {
		case n == 0:
			return fmt.Errorf("empty backed run at slot %d", l2)
		case l2 < end:
			return fmt.Errorf("backed run at slot %d overlaps or precedes the one before", l2)
		case l2+n > tableEntries:
			return fmt.Errorf("backed run [%d,+%d) ends past slot %d", l2, n, tableEntries-1)
		case pid == 0 || int(pid)+n-1 > npages:
			return fmt.Errorf("backed run [%d,+%d): page ids from %d out of range (%d pages)", l2, n, pid, npages)
		}
		end = l2 + n
		for at := l2; at < end; at = runEnd(t, j) { // the runs covering [l2, end), back to back
			for j < t.nruns() && runEnd(t, j) <= at {
				j++
			}
			if j == t.nruns() || at < runStart(t, j) {
				return fmt.Errorf("backed slot %d outside every run", at)
			}
		}
	}
	return nil
}

func runStart(t tableImage, j int) int { l2, _, _ := t.run(j); return l2 }
func runEnd(t tableImage, j int) int   { l2, n, _ := t.run(j); return l2 + n }

// take16 consumes a section of u16-counted records of unit bytes and
// returns it, count included.
func take16(r *imgenc.Reader, unit int, what string) []byte {
	start := r.Off
	r.Take(r.Count16(unit, what) * unit)
	if r.Err != nil {
		return nil
	}
	return r.B[start:r.Off]
}

// readSpaces consumes and checks a space section, whose root slots must
// ascend and name one of ntables tables, and returns it.
func readSpaces(r *imgenc.Reader, ntables int) []byte {
	start := r.Off
	n := r.Count(2, "space") // a space is at least its root-slot count
	for i := 0; i < n && r.Err == nil; i++ {
		prev := -1
		for range r.Count16(rootSlotSize, "root slot") {
			l1, tid := int(r.U16()), int(r.U32())
			if r.Err == nil && (l1 <= prev || l1 >= tableEntries || tid == 0 || tid > ntables) {
				r.Failf("space %d: root slot %d -> table %d out of order or range", i, l1, tid)
			}
			prev = l1
		}
	}
	if r.Err != nil {
		return nil
	}
	return r.B[start:r.Off]
}

// seal writes img as a current image, into a buffer sized once.
func (img *forestImage) seal() []byte {
	size := len(imageMagic) + 1 + 4 + len(img.pages)*PageSize + 4 + len(img.spaces) + 4
	for _, t := range img.tables {
		size += len(t.runs) + len(t.backed)
	}
	b := make([]byte, 0, size)
	b = append(b, imageMagic...)
	b = append(b, ImageVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(img.pages)))
	for _, pg := range img.pages {
		b = append(b, pg...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(img.tables)))
	for _, t := range img.tables {
		b = append(b, t.runs...)
		b = append(b, t.backed...)
	}
	b = append(b, img.spaces...)
	return imgenc.Seal(b)
}

// openForest is the one reader of a flat image: DecodeForest builds the
// object graph from what it returns, ChunkForest the chunks. Every
// section is checked; a current image's sections alias it, a version-1
// image's are rewritten in the current grammar.
func openForest(data []byte) (*forestImage, error) {
	r, version, err := imgenc.OpenRange(data, imageMagic, 1, ImageVersion,
		func(off int, msg string) error { return &ImageFormatError{Offset: off, Msg: msg} },
		func(v byte) error { return &ImageVersionError{Version: v, Max: ImageVersion} })
	if err != nil {
		return nil, err
	}
	img := &forestImage{pages: make([][]byte, r.Count(PageSize, "page"))}
	for i := range img.pages {
		img.pages[i] = r.Take(PageSize)
	}
	if version == 1 {
		img.readV1(r)
	} else {
		img.tables = make([]tableImage, r.Count(4, "table")) // a table is at least its two counts
		for i := 0; i < len(img.tables) && r.Err == nil; i++ {
			t := tableImage{runs: take16(r, runSize, "run")}
			t.backed = take16(r, backedSize, "backed run")
			if r.Err != nil {
				break
			}
			if err := t.check(len(img.pages)); err != nil {
				r.Failf("table %d: %v", i, err)
			}
			img.tables[i] = t
		}
		img.spaces = readSpaces(r, len(img.tables))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return img, nil
}

// flatPTESize is one mapped slot as a version-1 table lists it: slot u16,
// permissions u8, page id u32 (0 = demand-zero).
const flatPTESize = 2 + 1 + 4

// readV1 reads a version-1 image's table and space sections into img,
// rewritten in the current grammar. A slot or root slot listed twice
// keeps its last entry; the flags bytes, dirty slots and snapshot links
// are checked for range and dropped.
func (img *forestImage) readV1(r *imgenc.Reader) {
	var slots [tableEntries]struct {
		perm Perm
		pid  uint32
	}
	img.tables = make([]tableImage, r.Count(2, "table")) // an empty table is its u16 entry count
	for i := 0; i < len(img.tables) && r.Err == nil; i++ {
		clear(slots[:])
		for range r.Count16(flatPTESize, "pte") {
			l2, perm, pid := int(r.U16()), Perm(r.U8()), r.U32()
			switch {
			case r.Err != nil:
			case l2 >= tableEntries:
				r.Failf("pte index %d out of range", l2)
			case perm&^PermRW != 0:
				r.Failf("pte %d: permission %#x has bits outside %v", l2, uint8(perm), PermRW)
			case int(pid) > len(img.pages):
				r.Failf("page id %d out of range (%d pages)", pid, len(img.pages))
			default:
				slots[l2].perm, slots[l2].pid = perm, pid
			}
		}
		t := tableImage{runs: []byte{0, 0}}
		nr := 0
		for l2 := 0; l2 < tableEntries; {
			perm, end := slots[l2].perm, l2
			for end < tableEntries && slots[end].perm == perm && (perm != PermNone || slots[end].pid != 0) {
				end++
			}
			if end == l2 {
				l2++
				continue
			}
			t.runs = binary.LittleEndian.AppendUint16(t.runs, uint16(l2))
			t.runs = binary.LittleEndian.AppendUint16(t.runs, uint16(end-l2))
			t.runs = append(t.runs, byte(perm))
			nr++
			l2 = end
		}
		backed := newBackedRuns(nil)
		for l2, s := range slots {
			if s.pid != 0 {
				backed.add(l2, s.pid)
			}
		}
		binary.LittleEndian.PutUint16(t.runs, uint16(nr))
		t.backed = backed.end()
		img.tables[i] = t
	}

	var root [tableEntries]uint32
	nSpaces := r.Count(5, "space") // flags, root-slot count, dirty-slot count
	img.spaces = binary.LittleEndian.AppendUint32(nil, uint32(nSpaces))
	for i := 0; i < nSpaces && r.Err == nil; i++ {
		clear(root[:])
		r.U8() // flags
		for range int(r.U16()) {
			l1, tid := int(r.U16()), r.U32()
			if r.Err == nil && (l1 >= tableEntries || tid == 0 || int(tid) > len(img.tables)) {
				r.Failf("root slot %d -> table %d out of range", l1, tid)
			}
			if r.Err != nil {
				break
			}
			root[l1] = tid
		}
		for range int(r.U16()) { // dirty slots: a slot and its 1024-bit map
			if l1 := int(r.U16()); r.Err == nil && l1 >= tableEntries {
				r.Failf("dirty slot %d out of range", l1)
			}
			r.Take(tableEntries / 8)
		}
		count := len(img.spaces)
		img.spaces = append(img.spaces, 0, 0)
		n := 0
		for l1, tid := range root {
			if tid != 0 {
				img.spaces = binary.LittleEndian.AppendUint16(img.spaces, uint16(l1))
				img.spaces = binary.LittleEndian.AppendUint32(img.spaces, tid)
				n++
			}
		}
		binary.LittleEndian.PutUint16(img.spaces[count:], uint16(n))
	}
	for range r.Count(8, "link") { // snapshot links
		ci, ri := int(r.U32()), int(r.U32())
		if r.Err == nil && (ci >= nSpaces || ri >= nSpaces) {
			r.Failf("snapshot link %d -> %d out of range", ci, ri)
		}
	}
}

// DecodeForest reconstructs the spaces of a forest image, restoring the
// exact page/table sharing graph. Corrupt or truncated input returns
// *ImageFormatError; input from a newer format returns
// *ImageVersionError. The spaces have no frame pool.
func DecodeForest(data []byte) ([]*Space, error) { return (*Frames)(nil).DecodeForest(data) }

// DecodeForest is the package's DecodeForest for a machine: the restored
// pages and tables come from f, and f is the restored spaces' pool.
// openForest has checked every section, so nothing is taken from f for
// an image that fails.
func (f *Frames) DecodeForest(data []byte) ([]*Space, error) {
	img, err := openForest(data)
	if err != nil {
		return nil, err
	}
	// Each page and table comes out of f with one reference, the
	// decoder's own, which it drops once the spaces hold theirs: an
	// object nothing else references (possible only in a hand-built
	// image) then goes back to f.
	pages := make([]*page, len(img.pages))
	for i, b := range img.pages {
		pages[i] = f.pageFrom(b)
	}
	tables := make([]*table, len(img.tables))
	for i, ti := range img.tables {
		t := f.table(true)
		for j := range ti.nruns() {
			l2, n, perm := ti.run(j)
			t.setRange(f, l2, l2+n, perm, false)
		}
		for j := range ti.nbacked() {
			l2, n, pid := ti.backedRun(j)
			for k, pg := range pages[pid-1 : int(pid)-1+n] {
				t.set(l2+k, pte{pg: pg, perm: t.ptes[l2+k].perm})
				pg.refs.Add(1)
			}
		}
		tables[i] = t
	}

	r := &imgenc.Reader{B: img.spaces, Wrap: func(off int, msg string) error { return &ImageFormatError{Offset: off, Msg: msg} }}
	spaces := make([]*Space, r.U32())
	for i := range spaces {
		s := f.NewSpace()
		for range r.U16() {
			l1, tid := r.U16(), r.U32()
			s.root[l1] = tables[tid-1]
			tables[tid-1].refs.Add(1)
		}
		spaces[i] = s
	}
	for _, pg := range pages {
		f.dropPage(pg)
	}
	for _, t := range tables {
		f.dropTable(t)
	}
	return spaces, nil
}
