// Package vm implements the software paged virtual memory substrate that
// stands in for the x86 MMU in the original Determinator kernel.
//
// Each Space is a private 32-bit address space built from 4 KiB pages behind
// a two-level page table. Pages are shared copy-on-write between spaces (for
// the kernel's Copy and Snap operations) and carry read/write permissions.
// Merge performs the byte-granularity three-way reconciliation at the heart
// of Determinator's private workspace model: bytes the child changed since
// its reference snapshot are folded into the parent, and bytes changed on
// both sides raise a conflict, independent of any execution schedule. A
// page the child unmapped is not a change: the parent keeps its page. Nor
// is a permission: wherever the parent maps a slot, it keeps its own. Nor
// is a mapping the child made over a slot the snapshot does not back and
// never wrote: the parent's slot stays as it was.
//
// Copy-on-write is also the record of what changed: a table or page a
// space still shares with its snapshot is one it has not changed since.
// Merge and the root-sharing walk answer from that pointer identity
// alone; inside a table that is no longer shared, Merge visits only the
// slots either side's occupancy map lists, and names the pages it moves
// (MergeConfig.Moved) as it reaches them. Whether it may adopt such a
// table whole it reads off the two tables' occupancy and permission
// bitmaps, 64 slots a word, never off their entries.
//
// One walk re-shares root slots (shareRoot, resnap.go): it makes a run of
// one space's level-2 table pointers equal to a run of another's. A
// snapshot, a re-snapshot, a whole-space copy and a copy of whole tables
// between any two table-aligned addresses are each that walk, so Snapshot,
// Resnap, CopyAllFrom and CopyFrom's whole-table path copy nothing and
// report the tables they re-shared.
//
// A load or store the page table already allows costs one pte check.
// Every accessor asks the hit test (Space.hit) first, which returns the
// page when the span lies inside it and the pte grants the access with
// no copy-on-write to break and no page to install; only the rest walk
// the tables with a cursor.
//
// # Concurrency invariants
//
// A Space is not safe for concurrent use by multiple goroutines. The kernel
// guarantees that a space is only ever touched by its owning goroutine, or
// by its parent while the child is stopped at a rendezvous point; pages
// shared COW between spaces are never written in place (writers always
// break sharing first), so cross-space page sharing needs no locking beyond
// the atomic reference count.
//
// Pages and tables are made and freed only through a frame pool, Frames
// (frames.go; a nil one is the Go heap). A kernel.Machine gives all its
// spaces, their snapshots and the spaces it restores one pool, so a free
// arrives from whichever goroutine drops the last reference — a child
// breaking COW on a page its siblings share, a parent merging an early
// finisher while later siblings still run — and the pool takes a lock. It
// holds at most as many frames as the machine ever had free at once.
//
// Frames outlive their machine. When a machine ends, after its last space
// goroutine has stopped and every space and snapshot has been freed, its
// pool's frames go to the depot (Frames.Release), the one state machines
// share: a process-wide stock any pool that runs short takes from before
// it allocates. The depot holds only frames that are all zero and
// unreferenced — Release clears what it keeps — so a take from it is
// byte-for-byte a new page or table, and no machine's bytes, layout or
// reference counts reach another. It keeps at most as many pages (tables)
// as one release has returned; its lock is held to push and pop, never to
// clear. Frames.Live counts only the machine's own frames.
//
// A recycled frame is a new object at an old address, so comparing
// pointers is sound only between objects something still references.
// Every == and != on a *page or *table — MergeEx, mergeTable,
// mergePage, shareRoot — compares entries read from the root
// or a table of a live space or snapshot, which pins them; and where a
// slot's page or table is replaced, the new reference is taken before the
// old one is dropped, so a replacement by the same object never passes
// through the pool.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Address-space geometry. The layout mirrors 32-bit x86 two-level paging:
// 10 bits of level-1 index, 10 bits of level-2 index, 12 bits of page offset.
const (
	PageShift = 12
	// PageSize is the granularity of mapping, copy-on-write sharing and
	// permission control, matching the 4 KiB x86 page.
	PageSize = 1 << PageShift
	pageMask = PageSize - 1

	l1Shift      = 22
	l2Shift      = PageShift
	tableEntries = 1024

	// TableSpan is the address span one level-2 table covers: the
	// granularity of copy-on-write table sharing and of whole-table merge
	// adoption. A region of whole tables is copied by sharing tables.
	TableSpan = uint64(tableEntries) << l2Shift

	// SpaceSize is the total size of a space's virtual address range.
	SpaceSize = 1 << 32
)

// Addr is a 32-bit virtual address within a Space.
type Addr = uint32

// Perm describes the access permissions of a mapped page.
type Perm uint8

// Permission bits. A page with PermNone is mapped but inaccessible;
// an unmapped page has no pte at all and faults on any access.
const (
	PermNone Perm = 0
	PermR    Perm = 1 << 0
	PermW    Perm = 1 << 1
	PermRW        = PermR | PermW
)

func (p Perm) String() string {
	switch p {
	case PermNone:
		return "--"
	case PermR:
		return "r-"
	case PermW:
		return "-w"
	case PermRW:
		return "rw"
	}
	return fmt.Sprintf("Perm(%d)", uint8(p))
}

// A page is the unit of storage and of copy-on-write sharing. refs counts
// how many page-table entries (across all spaces and snapshots) reference
// it; a page with refs > 1 is immutable and must be copied before writing.
//
// data comes first so that a page's bytes start where its allocation
// does: a page falls in the allocator's 4 864-byte size class, whose
// objects are 256-byte aligned, so every typed access, page copy, clear
// and word-masked merge reads and writes aligned words. With refs first
// the bytes would sit 4 bytes in and every word of them would straddle.
type page struct {
	data [PageSize]byte
	refs atomic.Int32
}

// pte is a page-table entry: a permission plus an optional backing page.
// A mapped entry with a nil page reads as zeros ("lazy zero page"); the
// backing page is allocated on first write.
type pte struct {
	pg   *page
	perm Perm
}

func (e pte) mapped() bool { return e.perm != PermNone || e.pg != nil }

// bitmap is one of a table's occupancy and permission maps: bit l2 of word
// l2/64 for slot l2.
type bitmap = [tableEntries / 64]uint64

// table is a level-2 page table covering 4 MiB of address space. Like
// pages, tables are shared copy-on-write between spaces: refs counts the
// spaces (and snapshots) referencing the table, and a shared table is
// immutable — any mutation first copies it (ownTable). Table-granularity
// sharing is what makes fork and snapshot O(address-space/4MiB) rather
// than O(pages), mirroring the real kernel's two-level COW ("replicating
// a file system image among many spaces copies no physical pages").
//
// Three bitmaps mirror the ptes. occ is the occupancy map: bit l2 is set
// exactly when ptes[l2].pg is non-nil. rd and wr hold the slots whose
// permission has PermR and PermW. A permission has no other bits (SetPerm,
// Zero and the image decoder refuse them), so a slot is mapped exactly
// when its bit is set in occ|rd|wr. A table usually backs a handful of its
// 1024 slots, so the walks that only want the pages — reference counting
// in ownTable and Frames.dropTable, first-encounter numbering in
// ForestEncoder.Encode, DecodeForest's — visit set bits instead of slots,
// and the adoption test (keepsSnapshot) compares words instead of entries.
//
// The invariant is kept by writing ptes only through the two setters:
// set, for one slot, and setRange, for a run of slots (and by ownTable and
// clearTable, which copy or clear ptes and bitmaps together).
type table struct {
	refs atomic.Int32
	occ  bitmap
	rd   bitmap
	wr   bitmap
	ptes [tableEntries]pte
}

// set makes e the entry of slot l2 and keeps the three bitmaps in step;
// reference counts are the caller's.
func (t *table) set(l2 int, e pte) {
	t.ptes[l2] = e
	w, bit := l2>>6, uint64(1)<<(uint(l2)&63)
	t.occ[w] = fill(t.occ[w], bit, e.pg != nil)
	t.rd[w] = fill(t.rd[w], bit, e.perm&PermR != 0)
	t.wr[w] = fill(t.wr[w], bit, e.perm&PermW != 0)
}

// setRange gives slots [lo, hi) permission perm. With drop set it also
// drops every page they hold, releasing the table's reference to f; else
// the pages stay. The bitmaps are kept a word at a time.
func (t *table) setRange(f *Frames, lo, hi int, perm Perm, drop bool) {
	for w := lo >> 6; w<<6 < hi; w++ {
		m := slotsIn(w, lo, hi)
		if drop {
			for word := t.occ[w] & m; word != 0; word &= word - 1 {
				l2 := w<<6 | bits.TrailingZeros64(word)
				f.dropPage(t.ptes[l2].pg)
				t.ptes[l2].pg = nil
			}
			t.occ[w] &^= m
		}
		t.rd[w] = fill(t.rd[w], m, perm&PermR != 0)
		t.wr[w] = fill(t.wr[w], m, perm&PermW != 0)
	}
	for l2 := lo; l2 < hi; l2++ {
		t.ptes[l2].perm = perm
	}
}

// fill returns word with the bits of m set when on, cleared otherwise.
func fill(word, m uint64, on bool) uint64 {
	if on {
		return word | m
	}
	return word &^ m
}

// pages ranges over the pages t backs, in ascending slot order.
func (t *table) pages(yield func(*page) bool) {
	for w, word := range t.occ {
		for ; word != 0; word &= word - 1 {
			if !yield(t.ptes[w<<6|bits.TrailingZeros64(word)].pg) {
				return
			}
		}
	}
}

// slotsIn returns the bits of bitmap word w that stand for slots [lo, hi).
func slotsIn(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := w << 6; base < lo {
		m <<= uint(lo - base)
	}
	if end := (w + 1) << 6; end > hi {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// occIn returns occupancy word w of the slots a or b backs (a nil table
// backs none), limited to slots [lo, hi). Slots neither backs hold no page
// on either side, so the walk comparing two tables' pages — Merge's —
// visits only the set bits of these words.
func occIn(a, b *table, w, lo, hi int) uint64 {
	var word uint64
	if a != nil {
		word = a.occ[w]
	}
	if b != nil {
		word |= b.occ[w]
	}
	return word & slotsIn(w, lo, hi)
}

// shareTable adds a reference.
func shareTable(t *table) *table {
	if t != nil {
		t.refs.Add(1)
	}
	return t
}

// Space is a private virtual address space.
type Space struct {
	root [tableEntries]*table
	// frames is where the space's pages and tables come from and go back
	// to (frames.go); its snapshots share it. nil is the Go heap.
	frames *Frames
}

// ownTable returns a privately owned (mutable) level-2 table for index
// l1, copying a shared one or allocating an empty one as needed.
func (s *Space) ownTable(l1 int) *table {
	t := s.root[l1]
	if t == nil {
		t = s.frames.table(true)
		s.root[l1] = t
		return t
	}
	if t.refs.Load() > 1 {
		nt := s.frames.table(false)
		nt.ptes, nt.occ, nt.rd, nt.wr = t.ptes, t.occ, t.rd, t.wr
		for pg := range nt.pages {
			pg.refs.Add(1)
		}
		s.frames.dropTable(t)
		s.root[l1] = nt
		return nt
	}
	return t
}

// NewSpace returns an empty address space with nothing mapped, whose
// pages and tables come from the Go heap and are left to the collector.
func NewSpace() *Space { return &Space{} }

// AccessError reports a faulting access, the Determinator analogue of a
// processor page fault. The kernel converts it into a trap Ret.
type AccessError struct {
	Addr  Addr
	Write bool
	Perm  Perm // permissions actually present at Addr
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("vm: %s fault at %#08x (perm %s)", kind, e.Addr, e.Perm)
}

// SpanError reports a load or store whose span [Addr, Addr+Size) runs past
// the top of the address space. Addresses do not wrap: the access is
// refused before any byte moves, and the kernel faults the space as it
// does for an AccessError.
type SpanError struct {
	Addr Addr
	Size int
}

func (e *SpanError) Error() string {
	return fmt.Sprintf("vm: %d bytes at %#08x exceed address space", e.Size, e.Addr)
}

// CheckSpan returns a *SpanError unless the size bytes at addr lie inside
// the address space. Every load and store checks its own span; the kernel
// also calls it before charging demand paging for one.
func CheckSpan(addr Addr, size int) error {
	if uint64(addr)+uint64(size) > SpaceSize {
		return &SpanError{Addr: addr, Size: size}
	}
	return nil
}

func split(a Addr) (l1, l2 int) {
	return int(a >> l1Shift), int((a >> l2Shift) & (tableEntries - 1))
}

// entry returns the pte for the page containing a, or a zero pte if the
// page is unmapped.
func (s *Space) entry(a Addr) pte {
	l1, l2 := split(a)
	t := s.root[l1]
	if t == nil {
		return pte{}
	}
	return t.ptes[l2]
}

// rangeCheck validates a page-aligned range. size may run to the very end
// of the address space (addr+size == 2^32 encodes as wraparound to 0 only
// when addr==0 and size==SpaceSize, which we disallow for simplicity).
func rangeCheck(addr Addr, size uint64) error {
	if addr&pageMask != 0 || size&pageMask != 0 {
		return fmt.Errorf("vm: range %#x+%#x not page-aligned", addr, size)
	}
	if size > SpaceSize || uint64(addr)+size > SpaceSize {
		return fmt.Errorf("vm: range %#x+%#x exceeds address space", addr, size)
	}
	return nil
}

// SetPerm sets the permissions of every page in the (page-aligned) range,
// mapping previously unmapped pages as lazy-zero pages. It corresponds to
// the Perm option of Put/Get.
func (s *Space) SetPerm(addr Addr, size uint64, perm Perm) error {
	return s.mapRange(addr, size, perm, false)
}

// Zero zero-fills the (page-aligned) range, dropping any backing pages and
// leaving the pages mapped with the given permissions. It corresponds to
// the Zero option of Put/Get.
func (s *Space) Zero(addr Addr, size uint64, perm Perm) error {
	return s.mapRange(addr, size, perm, true)
}

// mapRange is SetPerm, or Zero when drop is set. It refuses a permission
// with bits outside PermRW, which no access could use and no bitmap holds.
// Each level-2 table the range touches is owned once and handed its slots
// [lo, hi) whole, so table sharing is broken once per level-1 slot rather
// than once per page — the bulk counterpart of the cursor walk in Read and
// Write.
func (s *Space) mapRange(addr Addr, size uint64, perm Perm, drop bool) error {
	if err := rangeCheck(addr, size); err != nil {
		return err
	}
	if perm&^PermRW != 0 {
		return fmt.Errorf("vm: permission %v has bits outside %v", perm, PermRW)
	}
	for a, end := uint64(addr), uint64(addr)+size; a < end; {
		l1, lo := split(Addr(a))
		hi := min(tableEntries, lo+int((end-a)>>PageShift))
		s.ownTable(l1).setRange(s.frames, lo, hi, perm, drop)
		a += uint64(hi-lo) << PageShift
	}
	return nil
}

// Free releases every table and page reference held by the space,
// leaving it empty. The kernel calls this when a space or snapshot is
// destroyed so that COW reference counts stay accurate.
func (s *Space) Free() {
	for i, t := range s.root {
		if t != nil {
			s.frames.dropTable(t)
			s.root[i] = nil
		}
	}
}

// CopyStats reports the work done by a bulk page operation, used by the
// kernel's virtual-time cost model.
type CopyStats struct {
	TablesShared int // whole level-2 tables shared copy-on-write
	PagesShared  int // individual pages shared copy-on-write
	PagesZeroed  int // pages dropped or left lazy-zero
}

// Add accumulates another operation's statistics into s.
func (s *CopyStats) Add(o CopyStats) {
	s.TablesShared += o.TablesShared
	s.PagesShared += o.PagesShared
	s.PagesZeroed += o.PagesZeroed
}

// CopyFrom logically copies the (page-aligned) range from src into s using
// copy-on-write sharing: no bytes move until someone writes. Destination
// permissions are inherited from the source. It implements the Copy option
// of Put/Get (with s and src being child/parent or vice versa). A range of
// whole level-2 tables at table-aligned addresses on both sides, equal or
// not, shares the tables themselves; any other range shares page by page.
// A copy of a space onto itself must be to the same address.
func (s *Space) CopyFrom(src *Space, srcAddr, dstAddr Addr, size uint64) (CopyStats, error) {
	var st CopyStats
	if err := rangeCheck(srcAddr, size); err != nil {
		return st, err
	}
	if err := rangeCheck(dstAddr, size); err != nil {
		return st, err
	}
	if s == src && srcAddr != dstAddr {
		return st, fmt.Errorf("vm: overlapping self-copy unsupported")
	}
	if srcAddr%Addr(TableSpan) == 0 && dstAddr%Addr(TableSpan) == 0 && size%TableSpan == 0 {
		// Whole level-2 tables on both sides: share the tables themselves.
		st.TablesShared = s.shareRoot(src, int(srcAddr>>l1Shift), int(dstAddr>>l1Shift), int(size>>l1Shift))
		return st, nil
	}
	for off := uint64(0); off < size; off += PageSize {
		se := src.entry(srcAddr + Addr(off))
		l1, l2 := split(dstAddr + Addr(off))
		t := s.ownTable(l1)
		// The new reference is taken before the old one is dropped: on a
		// self-copy they are one page, and its last reference must not
		// send it to the pool on the way to its own slot.
		if se.pg != nil {
			se.pg.refs.Add(1)
			st.PagesShared++
		} else {
			st.PagesZeroed++
		}
		if old := t.ptes[l2].pg; old != nil {
			s.frames.dropPage(old)
		}
		t.set(l2, pte{pg: se.pg, perm: se.perm})
	}
	return st, nil
}

// hit returns the bytes of the page holding [addr, addr+n) when the access
// needs nothing of the walk: the span lies inside one page and its pte
// already grants the access — PermR for a load (a lazy-zero page reads as
// the shared zero page); for a store PermW, a backing page, and both that
// page and its level-2 table referenced once, so nothing is shared
// copy-on-write. Otherwise it returns nil and the access walks with a
// cursor, which breaks sharing, installs pages and faults. The test keeps
// no state, so nothing invalidates it; it is the software TLB hit, and
// it takes the early exit only where the walk would return the same page
// untouched.
func (s *Space) hit(addr Addr, n int, write bool) *[PageSize]byte {
	if int(addr&pageMask)+n > PageSize {
		return nil
	}
	t := s.root[addr>>l1Shift]
	if t == nil {
		return nil
	}
	e := t.ptes[(addr>>l2Shift)&(tableEntries-1)]
	if !write {
		if e.perm&PermR == 0 {
			return nil
		}
		return dataOf(e.pg)
	}
	if e.perm&PermW == 0 || e.pg == nil || e.pg.refs.Load() != 1 || t.refs.Load() != 1 {
		return nil
	}
	return &e.pg.data
}

// cursor walks one space's page tables for an access the hit test turned
// away: a span that leaves its page, a store that must break sharing or
// install a page, or a fault. The level-2 table is resolved once per
// level-1 slot (1024 pages) instead of once per page; the privately owned
// table is cached on the first store, so the per-page store path is a pte
// load and a refcount check. The walk and the destination side of a merge
// job go through it; a merge job owns its level-1 slot exclusively, like
// everything else it mutates.
type cursor struct {
	s  *Space
	l1 int    // -1 before an access has resolved its first page
	t  *table // privately owned level-2 table for l1, resolved lazily
}

// entry reads the pte for l2, through the owned table once one exists.
func (c *cursor) entry(l2 int) pte {
	t := c.t
	if t == nil {
		if t = c.s.root[c.l1]; t == nil {
			return pte{}
		}
	}
	return t.ptes[l2]
}

// own returns the privately owned table for the cursor's slot, breaking
// table sharing on first use.
func (c *cursor) own() *table {
	if c.t == nil {
		t := c.s.root[c.l1]
		if t == nil || t.refs.Load() > 1 { // else already private: skip the call
			t = c.s.ownTable(c.l1)
		}
		c.t = t
	}
	return c.t
}

// writablePage returns a privately owned page at l2: a lazy-zero entry
// gets a zeroed page and a page shared copy-on-write is replaced by a
// private copy. whole says the caller is about to overwrite every byte of
// the page, so the new page is neither cleared nor copied into. It is the
// funnel for every in-place data write, and the only place a page's COW
// sharing is broken. The caller must already have checked write
// permission.
func (c *cursor) writablePage(l2 int, whole bool) *page {
	t := c.own()
	old := t.ptes[l2].pg
	if old != nil && old.refs.Load() == 1 {
		return old
	}
	np := c.s.frames.page(old == nil && !whole)
	if old != nil {
		if !whole {
			np.data = old.data
		}
		c.s.frames.dropPage(old)
	}
	t.set(l2, pte{pg: np, perm: t.ptes[l2].perm})
	return np
}

// page returns the bytes of the page containing addr, for a load or for
// a store. The pte that passes the permission check is the pte the
// access goes through. A load of a lazy-zero page gets the shared zero
// page; a store gets a page the space owns exclusively (see
// cursor.writablePage for whole).
func (c *cursor) page(addr Addr, write, whole bool) (*[PageSize]byte, error) {
	l1, l2 := split(addr)
	if l1 != c.l1 {
		*c = cursor{s: c.s, l1: l1}
	}
	e := c.entry(l2)
	switch {
	case !write && e.perm&PermR != 0:
		return dataOf(e.pg), nil
	case write && e.perm&PermW != 0:
		return &c.writablePage(l2, whole).data, nil
	}
	return nil, &AccessError{Addr: addr, Write: write, Perm: e.perm}
}

// word is the set of fixed-width little-endian element types the typed
// accessors move.
type word interface {
	uint32 | float64
}

// move copies len(v) elements between v and their encoding in b (exactly
// len(v) elements long): into b for a store, out of it for a load. A page
// holds words little-endian, which is how a little-endian host already
// holds v in memory, so there the run is one copy of v's bytes; elsewhere
// it is encoded a word at a time, with the type switch per span, not per
// element. This is the module's one use of package unsafe.
func move[T word](v []T, b []byte, write bool) {
	if littleEndian {
		vb := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(b))
		if write {
			copy(b, vb)
		} else {
			copy(vb, b)
		}
		return
	}
	switch v := any(v).(type) {
	case []uint32:
		for i := range v {
			if write {
				binary.LittleEndian.PutUint32(b[4*i:], v[i])
			} else {
				v[i] = binary.LittleEndian.Uint32(b[4*i:])
			}
		}
	case []float64:
		for i := range v {
			if write {
				binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v[i]))
			} else {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
	}
}

// access is every bulk typed load and store: it moves the elements of v,
// size bytes each, between the caller's slice and the pages at addr, in
// place. A span the hit test admits is one move; any other walks through
// the same per-page step as the byte path — so permissions, COW breaks,
// the whole-page install and the faulting address are the byte path's,
// with the pages before a fault already accessed.
//
// An element that straddles a page boundary is staged in an 8-byte stack
// array and goes through the byte walk itself, so it faults on either
// page exactly as its bytes would. (The byte walk uses a cursor of its
// own; c stays valid across it because a cursor caches only a table the
// space already owns.)
func access[T word](s *Space, addr Addr, v []T, size int, write bool) error {
	span := len(v) * size
	if d := s.hit(addr, span, write); d != nil {
		off := int(addr & pageMask)
		move(v, d[off:off+span], write)
		return nil
	}
	if err := CheckSpan(addr, span); err != nil {
		return err
	}
	shift := bits.TrailingZeros(uint(size)) // size is a power of two: no division per call
	c := cursor{s: s, l1: -1}
	for i := 0; i < len(v); {
		off := int(addr & pageMask)
		if k := min((PageSize-off)>>shift, len(v)-i); k > 0 {
			n := k << shift
			d, err := c.page(addr, write, n == PageSize)
			if err != nil {
				return err
			}
			move(v[i:i+k], d[off:off+n], write)
			i, addr = i+k, addr+Addr(n)
			continue
		}
		var w [8]byte
		if write {
			move(v[i:i+1], w[:size], true)
		}
		if err := s.walk(addr, w[:size], write); err != nil {
			return err
		}
		if !write {
			move(v[i:i+1], w[:size], false)
		}
		i, addr = i+1, addr+Addr(size)
	}
	return nil
}

// bytes is the byte path: Read, or Write when write is set. A span the hit
// test admits is one copy; any other walks.
func (s *Space) bytes(addr Addr, p []byte, write bool) error {
	if d := s.hit(addr, len(p), write); d != nil {
		if off := addr & pageMask; write {
			copy(d[off:], p)
		} else {
			copy(p, d[off:])
		}
		return nil
	}
	return s.walk(addr, p, write)
}

// walk is the byte path past the hit test. Every page touched must carry
// the permission; the first one that does not faults, after the pages
// before it have been accessed. A store that covers a whole page installs
// a fresh page initialized straight from the incoming bytes, skipping the
// read-copy of data that is about to be overwritten.
func (s *Space) walk(addr Addr, p []byte, write bool) error {
	if err := CheckSpan(addr, len(p)); err != nil {
		return err
	}
	c := cursor{s: s, l1: -1}
	for len(p) > 0 {
		off := int(addr & pageMask)
		d, err := c.page(addr, write, off == 0 && len(p) >= PageSize)
		if err != nil {
			return err
		}
		var n int
		if write {
			n = copy(d[off:], p)
		} else {
			n = copy(p, d[off:])
		}
		p, addr = p[n:], addr+Addr(n)
	}
	return nil
}

// Read copies len(p) bytes starting at addr into p. The range may cross
// page boundaries but every page touched must be mapped with PermR.
func (s *Space) Read(addr Addr, p []byte) error { return s.bytes(addr, p, false) }

// ZeroRun reports how many bytes starting at addr, at most limit, lie in
// demand-zero memory: pages mapped with PermR that have no backing page,
// which Read would deliver as zeros. The run ends at the first page that
// is backed, unreadable or unmapped, or at the top of the address space;
// ZeroRun says nothing about that page, so a Read of it still returns
// data or faults exactly as it always did. It is a pure page-table query
// — no byte is touched — and resolves the level-2 table once per level-1
// slot, as the access cursor does.
func (s *Space) ZeroRun(addr Addr, limit uint64) uint64 {
	limit = min(limit, SpaceSize-uint64(addr))
	curL1 := -1
	var t *table
	var run uint64
	for run < limit {
		l1, l2 := split(addr)
		if l1 != curL1 {
			t, curL1 = s.root[l1], l1
		}
		if t == nil {
			break
		}
		if e := t.ptes[l2]; e.pg != nil || e.perm&PermR == 0 {
			break
		}
		n := PageSize - uint64(addr&pageMask)
		run += n
		addr += Addr(n)
	}
	return min(run, limit)
}

// Write copies p into the space starting at addr. Every page touched must
// be mapped with PermW; COW sharing is broken as needed.
func (s *Space) Write(addr Addr, p []byte) error { return s.bytes(addr, p, true) }

// The scalar accessors move their word in place on a page the hit test
// admits; any other word — astride a page boundary, on a page a store must
// install or unshare, or faulting — goes through a stack array and the
// byte walk.

// ReadU32 reads a little-endian uint32 at addr.
func (s *Space) ReadU32(addr Addr) (uint32, error) {
	if d := s.hit(addr, 4, false); d != nil {
		return binary.LittleEndian.Uint32(d[addr&pageMask:]), nil
	}
	var w [4]byte
	err := s.walk(addr, w[:], false)
	return binary.LittleEndian.Uint32(w[:]), err
}

// ReadU32Stride loads dst[i] from addr+i*stride (Addr arithmetic, as a
// loop of ReadU32 would compute it), in index order. It is that loop with
// one hit test per page: consecutive elements on one page share it, a
// word astride a page boundary takes ReadU32, and so does the first word
// on a page the test turns away — a load it refuses faults — which stops
// the load: loaded counts the elements before it, and err is the error
// ReadU32 returns for that element.
func (s *Space) ReadU32Stride(addr, stride Addr, dst []uint32) (loaded int, err error) {
	var d *[PageSize]byte // the page at base, nil before the first test or after a miss
	var base Addr
	for i := range dst {
		a := addr + Addr(i)*stride
		off := a & pageMask
		if d == nil || a-off != base {
			d, base = s.hit(a-off, PageSize, false), a-off
		}
		if d == nil || off > PageSize-4 {
			v, err := s.ReadU32(a)
			if err != nil {
				return i, err
			}
			dst[i] = v
			continue
		}
		dst[i] = binary.LittleEndian.Uint32(d[off:])
	}
	return len(dst), nil
}

// WriteU32 writes a little-endian uint32 at addr.
func (s *Space) WriteU32(addr Addr, v uint32) error {
	if d := s.hit(addr, 4, true); d != nil {
		binary.LittleEndian.PutUint32(d[addr&pageMask:], v)
		return nil
	}
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	return s.walk(addr, w[:], true)
}

// ReadU64 reads a little-endian uint64 at addr.
func (s *Space) ReadU64(addr Addr) (uint64, error) {
	if d := s.hit(addr, 8, false); d != nil {
		return binary.LittleEndian.Uint64(d[addr&pageMask:]), nil
	}
	var w [8]byte
	err := s.walk(addr, w[:], false)
	return binary.LittleEndian.Uint64(w[:]), err
}

// WriteU64 writes a little-endian uint64 at addr.
func (s *Space) WriteU64(addr Addr, v uint64) error {
	if d := s.hit(addr, 8, true); d != nil {
		binary.LittleEndian.PutUint64(d[addr&pageMask:], v)
		return nil
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return s.walk(addr, w[:], true)
}

// ReadF64 reads a float64 at addr.
func (s *Space) ReadF64(addr Addr) (float64, error) {
	v, err := s.ReadU64(addr)
	return math.Float64frombits(v), err
}

// WriteF64 writes a float64 at addr.
func (s *Space) WriteF64(addr Addr, v float64) error { return s.WriteU64(addr, math.Float64bits(v)) }

// ReadU32s bulk-reads len(dst) little-endian uint32s starting at addr.
func (s *Space) ReadU32s(addr Addr, dst []uint32) error { return access(s, addr, dst, 4, false) }

// WriteU32s bulk-writes src as little-endian uint32s starting at addr.
func (s *Space) WriteU32s(addr Addr, src []uint32) error { return access(s, addr, src, 4, true) }

// ReadF64s bulk-reads len(dst) float64s starting at addr.
func (s *Space) ReadF64s(addr Addr, dst []float64) error { return access(s, addr, dst, 8, false) }

// WriteF64s bulk-writes src as float64s starting at addr.
func (s *Space) WriteF64s(addr Addr, src []float64) error { return access(s, addr, src, 8, true) }

// View returns the n bytes at addr in place, without copying them, when
// the load hit test admits the span: it lies inside one page and the pte
// grants PermR. Otherwise it returns nil and the caller Reads the span,
// which walks and faults as always. The bytes are the page's own, shared
// with every space that maps it: the caller must not write them, and they
// are valid only until the space next changes.
func (s *Space) View(addr Addr, n int) []byte {
	if d := s.hit(addr, n, false); d != nil {
		return d[addr&pageMask:][:n]
	}
	return nil
}
