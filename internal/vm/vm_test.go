package vm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSetPerm(t *testing.T, s *Space, addr Addr, size uint64, perm Perm) {
	t.Helper()
	if err := s.SetPerm(addr, size, perm); err != nil {
		t.Fatalf("SetPerm(%#x, %#x): %v", addr, size, err)
	}
}

func TestReadUnmappedFaults(t *testing.T) {
	s := NewSpace()
	var b [1]byte
	err := s.Read(0x1000, b[:])
	var ae *AccessError
	if !errors.As(err, &ae) {
		t.Fatalf("Read of unmapped page: got %v, want AccessError", err)
	}
	if ae.Write || ae.Addr != 0x1000 {
		t.Errorf("AccessError = %+v, want read fault at 0x1000", ae)
	}
}

func TestWriteNeedsPermW(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, PageSize, PermR)
	err := s.Write(0, []byte{1})
	var ae *AccessError
	if !errors.As(err, &ae) || !ae.Write {
		t.Fatalf("Write to read-only page: got %v, want write AccessError", err)
	}
	mustSetPerm(t, s, 0, PageSize, PermRW)
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatalf("Write after granting PermW: %v", err)
	}
}

func TestLazyZeroReadsAsZero(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, 2*PageSize, PermRW)
	got := make([]byte, 100)
	for i := range got {
		got[i] = 0xff
	}
	if err := s.Read(PageSize-50, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 100)) {
		t.Error("lazy-zero pages did not read as zeros")
	}
}

func TestReadWriteRoundTripAcrossPages(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, 4*PageSize, PermRW)
	data := make([]byte, 3*PageSize)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	if err := s.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-back mismatch across page boundaries")
	}
}

func TestTypedAccessors(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, PageSize, PermRW)
	if err := s.WriteU32(0, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadU32(0); v != 0xdeadbeef {
		t.Errorf("ReadU32 = %#x", v)
	}
	if err := s.WriteU64(8, 0x0123456789abcdef); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadU64(8); v != 0x0123456789abcdef {
		t.Errorf("ReadU64 = %#x", v)
	}
	if err := s.WriteF64(16, 3.25); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadF64(16); v != 3.25 {
		t.Errorf("ReadF64 = %v", v)
	}
	want32 := []uint32{1, 2, 3, 4, 5}
	if err := s.WriteU32s(64, want32); err != nil {
		t.Fatal(err)
	}
	got32 := make([]uint32, 5)
	if err := s.ReadU32s(64, got32); err != nil {
		t.Fatal(err)
	}
	for i := range want32 {
		if got32[i] != want32[i] {
			t.Fatalf("ReadU32s[%d] = %d, want %d", i, got32[i], want32[i])
		}
	}
	wantF := []float64{1.5, -2.25, 1e300}
	if err := s.WriteF64s(128, wantF); err != nil {
		t.Fatal(err)
	}
	gotF := make([]float64, 3)
	if err := s.ReadF64s(128, gotF); err != nil {
		t.Fatal(err)
	}
	for i := range wantF {
		if gotF[i] != wantF[i] {
			t.Fatalf("ReadF64s[%d] = %v, want %v", i, gotF[i], wantF[i])
		}
	}
}

func TestCopyFromSharesThenCOW(t *testing.T) {
	src := NewSpace()
	mustSetPerm(t, src, 0, PageSize, PermRW)
	if err := src.Write(0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	dst := NewSpace()
	st, err := dst.CopyFrom(src, 0, 0, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesShared != 1 {
		t.Errorf("PagesShared = %d, want 1", st.PagesShared)
	}
	// Same physical page until a write occurs.
	if src.entry(0).pg != dst.entry(0).pg {
		t.Error("CopyFrom did not share the page")
	}
	if err := dst.Write(0, []byte("WORLD")); err != nil {
		t.Fatal(err)
	}
	if src.entry(0).pg == dst.entry(0).pg {
		t.Error("write did not break COW sharing")
	}
	var b [5]byte
	if err := src.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "hello" {
		t.Errorf("source corrupted by COW write: %q", b[:])
	}
}

func TestCopyFromBulkAlignedMatchesPerPage(t *testing.T) {
	const span = uint64(tableEntries * PageSize) // one full level-2 table
	src := NewSpace()
	mustSetPerm(t, src, 0, span, PermRW)
	data := make([]byte, 8*PageSize)
	rand.New(rand.NewSource(2)).Read(data)
	if err := src.Write(3*PageSize, data); err != nil {
		t.Fatal(err)
	}

	bulk := NewSpace()
	if _, err := bulk.CopyFrom(src, 0, 0, span); err != nil {
		t.Fatal(err)
	}
	perPage := NewSpace()
	if _, err := perPage.CopyFrom(src, 0, PageSize, span-PageSize); err != nil {
		t.Fatal(err) // unaligned dst forces the per-page path
	}

	got := make([]byte, len(data))
	if err := bulk.Read(3*PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("bulk copy content mismatch")
	}
	if err := perPage.Read(3*PageSize+PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("per-page copy content mismatch")
	}
}

func TestZeroDropsContent(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, PageSize, PermRW)
	if err := s.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Zero(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	var b [3]byte
	if err := s.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if b != [3]byte{} {
		t.Errorf("Zero left data behind: %v", b)
	}
}

func TestRangeValidation(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(1, PageSize, PermR); err == nil {
		t.Error("unaligned addr accepted")
	}
	if err := s.SetPerm(0, PageSize+1, PermR); err == nil {
		t.Error("unaligned size accepted")
	}
	if err := s.SetPerm(0xfffff000, 2*PageSize, PermR); err == nil {
		t.Error("range past end of address space accepted")
	}
}

// TestPermOutsideRWRefused: SetPerm and Zero refuse a permission with
// bits outside PermRW, as they refuse a bad range, and leave the space as
// it was. Such a slot would be mapped by its pte and in no permission
// bitmap, so the adoption test and the per-slot rule would disagree on it.
func TestPermOutsideRWRefused(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, 2*PageSize, PermRW)
	if err := s.WriteU32(PageSize, 7); err != nil {
		t.Fatal(err)
	}
	before := fingerprint(s, 0, TableSpan)
	for _, perm := range []Perm{4, PermRW | 4, 0x80} {
		if err := s.SetPerm(0, 2*PageSize, perm); err == nil {
			t.Errorf("SetPerm accepted %v", perm)
		}
		if err := s.Zero(0, 2*PageSize, perm); err == nil {
			t.Errorf("Zero accepted %v", perm)
		}
		if err := s.SetPerm(4<<l1Shift, PageSize, perm); err == nil || s.root[4] != nil {
			t.Errorf("SetPerm of an unmapped table to %v: err %v, table made %v", perm, err, s.root[4] != nil)
		}
	}
	if fingerprint(s, 0, TableSpan) != before {
		t.Error("a refused SetPerm or Zero changed the space")
	}
	checkBitmaps(t, s)
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, PageSize, PermRW)
	if err := s.Write(0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Snapshot()
	if err := s.Write(0, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	var b [6]byte
	if err := snap.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "before" {
		t.Errorf("snapshot saw later write: %q", b[:])
	}
}

// --- Merge semantics -------------------------------------------------------

// forkPair builds the canonical fork setup: parent with given contents,
// child as a COW copy of parent, snapshot of the child.
func forkPair(t *testing.T, contents []byte) (parent, child, snap *Space) {
	t.Helper()
	parent = NewSpace()
	mustSetPerm(t, parent, 0, 4*PageSize, PermRW)
	if err := parent.Write(0, contents); err != nil {
		t.Fatal(err)
	}
	child = NewSpace()
	if _, err := child.CopyFrom(parent, 0, 0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	snap, _ = child.Snapshot()
	return
}

func TestMergeChildOnlyChange(t *testing.T) {
	parent, child, snap := forkPair(t, []byte("aaaaaaaa"))
	if err := child.Write(2, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	st, err := Merge(parent, child, snap, 0, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesAdopted != 1 {
		t.Errorf("PagesAdopted = %d, want 1 (parent untouched fast path)", st.PagesAdopted)
	}
	var b [8]byte
	if err := parent.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "aaXYaaaa" {
		t.Errorf("parent after merge = %q", b[:])
	}
}

func TestMergeDisjointChanges(t *testing.T) {
	parent, child, snap := forkPair(t, []byte("aaaaaaaa"))
	if err := child.Write(0, []byte("C")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(7, []byte("P")); err != nil {
		t.Fatal(err)
	}
	st, err := Merge(parent, child, snap, 0, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesCompared != 1 || st.BytesMerged != 1 {
		t.Errorf("stats = %+v, want 1 page compared, 1 byte merged", st)
	}
	var b [8]byte
	if err := parent.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "Caaaaaa"+"P" {
		t.Errorf("parent after merge = %q, want both sides' writes", b[:])
	}
}

func TestMergeConflictDetected(t *testing.T) {
	parent, child, snap := forkPair(t, []byte("aaaaaaaa"))
	if err := child.Write(3, []byte("C")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(3, []byte("P")); err != nil {
		t.Fatal(err)
	}
	_, err := Merge(parent, child, snap, 0, 4*PageSize)
	var mc *MergeConflictError
	if !errors.As(err, &mc) {
		t.Fatalf("Merge = %v, want MergeConflictError", err)
	}
	if mc.Total != 1 || mc.Addrs[0] != 3 {
		t.Errorf("conflict = %+v, want 1 conflict at addr 3", mc)
	}
}

func TestMergeConflictEvenWhenValuesEqual(t *testing.T) {
	// The paper treats "both sides changed the byte" as a conflict;
	// equal new values do not excuse it.
	parent, child, snap := forkPair(t, []byte("aaaaaaaa"))
	if err := child.Write(3, []byte("Z")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(3, []byte("Z")); err != nil {
		t.Fatal(err)
	}
	_, err := Merge(parent, child, snap, 0, 4*PageSize)
	var mc *MergeConflictError
	if !errors.As(err, &mc) {
		t.Fatalf("Merge = %v, want conflict for equal-value double write", err)
	}
}

func TestMergeSwapSemantics(t *testing.T) {
	// The paper's x=y / y=x example: two children each read the old value
	// and write one variable; merging both always swaps.
	parent := NewSpace()
	mustSetPerm(t, parent, 0, PageSize, PermRW)
	if err := parent.WriteU32(0, 111); err != nil { // x
		t.Fatal(err)
	}
	if err := parent.WriteU32(4, 222); err != nil { // y
		t.Fatal(err)
	}

	fork := func() (*Space, *Space) {
		c := NewSpace()
		if _, err := c.CopyFrom(parent, 0, 0, PageSize); err != nil {
			t.Fatal(err)
		}
		s, _ := c.Snapshot()
		return c, s
	}
	c1, s1 := fork()
	c2, s2 := fork()

	y, _ := c1.ReadU32(4)
	if err := c1.WriteU32(0, y); err != nil { // x = y
		t.Fatal(err)
	}
	x, _ := c2.ReadU32(0)
	if err := c2.WriteU32(4, x); err != nil { // y = x
		t.Fatal(err)
	}

	if _, err := Merge(parent, c1, s1, 0, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(parent, c2, s2, 0, PageSize); err != nil {
		t.Fatal(err)
	}
	gx, _ := parent.ReadU32(0)
	gy, _ := parent.ReadU32(4)
	if gx != 222 || gy != 111 {
		t.Errorf("after merge x=%d y=%d, want swapped 222/111", gx, gy)
	}
}

func TestMergeZeroedPagePropagates(t *testing.T) {
	parent, child, snap := forkPair(t, []byte("data"))
	if err := child.Zero(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(parent, child, snap, 0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	var b [4]byte
	if err := parent.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if b != [4]byte{} {
		t.Errorf("child Zero not propagated: %v", b)
	}
}

func TestMergeNewPageInChild(t *testing.T) {
	parent, child, snap := forkPair(t, []byte("x"))
	// Child maps and writes a page the parent never had.
	mustSetPerm(t, child, 2*PageSize, PageSize, PermRW)
	if err := child.Write(2*PageSize, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(parent, child, snap, 0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	var b [3]byte
	if err := parent.Read(2*PageSize, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "new" {
		t.Errorf("new child page not merged: %q", b[:])
	}
}

func TestCopyAllFromClonesEverything(t *testing.T) {
	src := NewSpace()
	mustSetPerm(t, src, 0, PageSize, PermRW)
	mustSetPerm(t, src, 0x40000000, PageSize, PermRW) // distant table
	if err := src.Write(0x40000000, []byte("far")); err != nil {
		t.Fatal(err)
	}
	dst := NewSpace()
	mustSetPerm(t, dst, 0x100000, PageSize, PermRW) // stale mapping to be dropped
	if err := dst.Write(0x100000, []byte("old")); err != nil {
		t.Fatal(err)
	}
	dst.CopyAllFrom(src)
	var b [3]byte
	if err := dst.Read(0x40000000, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "far" {
		t.Errorf("CopyAllFrom missed distant page: %q", b[:])
	}
	if err := dst.Read(0x100000, b[:]); err == nil {
		t.Error("CopyAllFrom kept stale mapping that src does not have")
	}
}

// Property: merging two children with disjoint write sets never conflicts
// and produces exactly the union of their writes.
func TestMergeDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewSpace()
		if err := parent.SetPerm(0, 2*PageSize, PermRW); err != nil {
			return false
		}
		init := make([]byte, 2*PageSize)
		rng.Read(init)
		if err := parent.Write(0, init); err != nil {
			return false
		}

		// Partition offsets: child1 writes even offsets, child2 odd.
		want := append([]byte(nil), init...)
		type ch struct {
			s, snap *Space
		}
		var chs []ch
		for c := 0; c < 2; c++ {
			cs := NewSpace()
			if _, err := cs.CopyFrom(parent, 0, 0, 2*PageSize); err != nil {
				return false
			}
			sn, _ := cs.Snapshot()
			chs = append(chs, ch{cs, sn})
		}
		for i := 0; i < 64; i++ {
			off := Addr(rng.Intn(2 * PageSize))
			c := int(off) % 2
			v := byte(rng.Intn(256))
			if v == init[off] {
				v ^= 0xff // ensure a visible change
			}
			if err := chs[c].s.Write(off, []byte{v}); err != nil {
				return false
			}
			want[off] = v
		}
		for _, c := range chs {
			if _, err := Merge(parent, c.s, c.snap, 0, 2*PageSize); err != nil {
				return false
			}
		}
		got := make([]byte, 2*PageSize)
		if err := parent.Read(0, got); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: if both children write the same byte (to distinct values), the
// second merge always reports a conflict, regardless of which bytes they are.
func TestMergeConflictProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewSpace()
		if err := parent.SetPerm(0, PageSize, PermRW); err != nil {
			return false
		}
		off := Addr(rng.Intn(PageSize))

		var children []*Space
		var snaps []*Space
		for c := 0; c < 2; c++ {
			cs := NewSpace()
			if _, err := cs.CopyFrom(parent, 0, 0, PageSize); err != nil {
				return false
			}
			sn, _ := cs.Snapshot()
			if err := cs.Write(off, []byte{byte(c + 1)}); err != nil {
				return false
			}
			children = append(children, cs)
			snaps = append(snaps, sn)
		}
		if _, err := Merge(parent, children[0], snaps[0], 0, PageSize); err != nil {
			return false
		}
		_, err := Merge(parent, children[1], snaps[1], 0, PageSize)
		var mc *MergeConflictError
		return errors.As(err, &mc) && mc.Total == 1 && mc.Addrs[0] == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: merge outcome is independent of the order in which children
// with disjoint writes are merged (schedule independence).
func TestMergeOrderIndependenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		build := func(order []int) []byte {
			rng := rand.New(rand.NewSource(seed))
			parent := NewSpace()
			parent.SetPerm(0, PageSize, PermRW)
			init := make([]byte, PageSize)
			rng.Read(init)
			parent.Write(0, init)
			const nc = 3
			children := make([]*Space, nc)
			snaps := make([]*Space, nc)
			for c := 0; c < nc; c++ {
				cs := NewSpace()
				cs.CopyFrom(parent, 0, 0, PageSize)
				sn, _ := cs.Snapshot()
				children[c], snaps[c] = cs, sn
			}
			for i := 0; i < 90; i++ {
				off := rng.Intn(PageSize)
				c := off % nc
				children[c].Write(Addr(off), []byte{byte(rng.Intn(256)) | 1})
			}
			for _, c := range order {
				if _, err := Merge(parent, children[c], snaps[c], 0, PageSize); err != nil {
					return nil
				}
			}
			out := make([]byte, PageSize)
			parent.Read(0, out)
			return out
		}
		a := build([]int{0, 1, 2})
		b := build([]int{2, 0, 1})
		return a != nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFreeReleasesRefs(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, PageSize, PermRW)
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	pg := s.entry(0).pg
	c := NewSpace()
	if _, err := c.CopyFrom(s, 0, 0, PageSize); err != nil {
		t.Fatal(err)
	}
	if got := pg.refs.Load(); got != 2 {
		t.Fatalf("refs after share = %d, want 2", got)
	}
	c.Free()
	if got := pg.refs.Load(); got != 1 {
		t.Fatalf("refs after Free = %d, want 1", got)
	}
	// With sharing gone, a write must not copy.
	if err := s.Write(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if s.entry(0).pg != pg {
		t.Error("write copied a page that was exclusively owned")
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{PermNone: "--", PermR: "r-", PermW: "-w", PermRW: "rw"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Perm(%d).String() = %q, want %q", p, got, want)
		}
	}
}

// TestFootprintCountsSharedObjectsOnce: lazy-zero mappings pin only
// their table, a snapshot shares everything with its origin, and a
// write diverges exactly one table and one page.
func TestFootprintCountsSharedObjectsOnce(t *testing.T) {
	if got := Footprint([]*Space{NewSpace()}); got != 0 {
		t.Fatalf("empty space: footprint %d", got)
	}
	s := NewSpace()
	mustSetPerm(t, s, 0, 3*TableSpan, PermRW) // three tables, nothing backed
	if got := Footprint([]*Space{s}); got != 3 {
		t.Fatalf("three lazy-zero tables: footprint %d, want 3", got)
	}
	if err := s.WriteU64(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU64(Addr(TableSpan)+PageSize, 9); err != nil {
		t.Fatal(err)
	}
	if got := Footprint([]*Space{s}); got != 5 {
		t.Fatalf("three tables, two pages: footprint %d, want 5", got)
	}
	snap, _ := s.Snapshot()
	if got := Footprint([]*Space{s, snap, s}); got != 5 {
		t.Fatalf("space + its snapshot: footprint %d, want 5 (all shared)", got)
	}
	// A write breaks one table's sharing and copies one page; the
	// snapshot keeps the originals.
	if err := s.WriteU64(8, 1); err != nil {
		t.Fatal(err)
	}
	if got := Footprint([]*Space{s, snap}); got != 7 {
		t.Fatalf("after a COW break: footprint %d, want 7", got)
	}
	if a, b := Footprint([]*Space{s, snap}), Footprint([]*Space{snap, s}); a != b {
		t.Fatalf("footprint depends on order: %d vs %d", a, b)
	}
}
