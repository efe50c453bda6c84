package vm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Tests specific to table-granularity copy-on-write: whole level-2 tables
// are shared by bulk copies and snapshots, and any mutation must first
// privatize the table without disturbing other sharers.

const tableSpan = uint64(tableEntries * PageSize) // 4 MiB

func TestBulkCopySharesTables(t *testing.T) {
	src := NewSpace()
	if err := src.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(0, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	dst := NewSpace()
	st, err := dst.CopyFrom(src, 0, 0, tableSpan)
	if err != nil {
		t.Fatal(err)
	}
	if st.TablesShared != 1 || st.PagesShared != 0 {
		t.Errorf("stats = %+v, want exactly one table shared, no page work", st)
	}
	if src.root[0] != dst.root[0] {
		t.Fatal("bulk copy did not share the level-2 table")
	}
}

func TestWriteAfterBulkCopyDoesNotLeak(t *testing.T) {
	src := NewSpace()
	if err := src.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(100, []byte("original")); err != nil {
		t.Fatal(err)
	}
	dst := NewSpace()
	if _, err := dst.CopyFrom(src, 0, 0, tableSpan); err != nil {
		t.Fatal(err)
	}
	// Writing through either side must not be visible to the other.
	if err := dst.Write(100, []byte("DSTWRITE")); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(200, []byte("SRCWRITE")); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	if err := src.Read(100, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "original" {
		t.Errorf("dst write leaked into src: %q", b[:])
	}
	if err := dst.Read(200, b[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b[:], make([]byte, 8)) {
		t.Errorf("src write leaked into dst: %q", b[:])
	}
}

func TestSetPermAfterShareDoesNotLeak(t *testing.T) {
	src := NewSpace()
	if err := src.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	dst := NewSpace()
	if _, err := dst.CopyFrom(src, 0, 0, tableSpan); err != nil {
		t.Fatal(err)
	}
	// Permission changes are pte mutations: they too must privatize.
	if err := dst.SetPerm(0, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if src.entry(0).perm != PermRW {
		t.Error("dst SetPerm changed src's permissions")
	}
	if dst.entry(0).perm != PermR || dst.entry(PageSize).perm != PermRW {
		t.Error("dst SetPerm wrong on dst itself")
	}
}

func TestZeroAfterShareDoesNotLeak(t *testing.T) {
	src := NewSpace()
	if err := src.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(0, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	dst := NewSpace()
	if _, err := dst.CopyFrom(src, 0, 0, tableSpan); err != nil {
		t.Fatal(err)
	}
	if err := dst.Zero(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	var b [4]byte
	if err := src.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "keep" {
		t.Errorf("dst Zero destroyed src data: %q", b[:])
	}
}

func TestSnapshotSharesTablesAndStaysFrozen(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, []byte("frozen")); err != nil {
		t.Fatal(err)
	}
	snap, st := s.Snapshot()
	if st.TablesShared != 1 {
		t.Errorf("snapshot stats = %+v, want 1 table shared", st)
	}
	for i := 0; i < 3; i++ {
		if err := s.Write(Addr(i*PageSize), []byte("mutate")); err != nil {
			t.Fatal(err)
		}
	}
	var b [6]byte
	if err := snap.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "frozen" {
		t.Errorf("snapshot thawed: %q", b[:])
	}
}

func TestThreeWayTableSharing(t *testing.T) {
	// parent → child → grandchild chains share one table three ways;
	// each writer privatizes independently.
	parent := NewSpace()
	if err := parent.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteU32(0, 7); err != nil {
		t.Fatal(err)
	}
	child := NewSpace()
	child.CopyAllFrom(parent)
	grand := NewSpace()
	grand.CopyAllFrom(child)

	if err := child.WriteU32(0, 8); err != nil {
		t.Fatal(err)
	}
	pv, _ := parent.ReadU32(0)
	cv, _ := child.ReadU32(0)
	gv, _ := grand.ReadU32(0)
	if pv != 7 || cv != 8 || gv != 7 {
		t.Errorf("three-way isolation broken: parent=%d child=%d grand=%d", pv, cv, gv)
	}
}

func TestMergeAdoptsWholeTable(t *testing.T) {
	parent := NewSpace()
	if err := parent.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(0, []byte("base")); err != nil {
		t.Fatal(err)
	}
	child := NewSpace()
	child.CopyAllFrom(parent)
	snap, _ := child.Snapshot()
	if err := child.Write(PageSize, []byte("childpage")); err != nil {
		t.Fatal(err)
	}
	st, err := Merge(parent, child, snap, 0, tableSpan)
	if err != nil {
		t.Fatal(err)
	}
	if st.TablesAdopted != 1 {
		t.Errorf("stats = %+v, want a whole-table adoption", st)
	}
	if st.PagesAdopted != 1 {
		t.Errorf("adopted-page accounting = %d, want 1 (one page actually changed)", st.PagesAdopted)
	}
	var b [9]byte
	if err := parent.Read(PageSize, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) != "childpage" {
		t.Errorf("table adoption lost data: %q", b[:])
	}
	// The untouched page survives in the parent.
	var b2 [4]byte
	if err := parent.Read(0, b2[:]); err != nil {
		t.Fatal(err)
	}
	if string(b2[:]) != "base" {
		t.Errorf("table adoption clobbered parent data: %q", b2[:])
	}
}

// Property: an arbitrary interleaving of bulk shares and writes across
// three spaces always keeps them isolated (reference model: plain byte
// slices).
func TestTableCOWIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const spanPages = 8
		spaces := make([]*Space, 3)
		model := make([][]byte, 3)
		for i := range spaces {
			spaces[i] = NewSpace()
			if err := spaces[i].SetPerm(0, tableSpan, PermRW); err != nil {
				return false
			}
			model[i] = make([]byte, spanPages*PageSize)
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(3) {
			case 0: // bulk copy j <- i
				i, j := rng.Intn(3), rng.Intn(3)
				if i == j {
					continue
				}
				if _, err := spaces[j].CopyFrom(spaces[i], 0, 0, tableSpan); err != nil {
					return false
				}
				copy(model[j], model[i])
			case 1: // write
				i := rng.Intn(3)
				off := rng.Intn(spanPages*PageSize - 8)
				var val [8]byte
				rng.Read(val[:])
				if err := spaces[i].Write(Addr(off), val[:]); err != nil {
					return false
				}
				copy(model[i][off:], val[:])
			case 2: // zero one page
				i := rng.Intn(3)
				pg := rng.Intn(spanPages)
				if err := spaces[i].Zero(Addr(pg*PageSize), PageSize, PermRW); err != nil {
					return false
				}
				copy(model[i][pg*PageSize:(pg+1)*PageSize], make([]byte, PageSize))
			}
		}
		buf := make([]byte, spanPages*PageSize)
		for i := range spaces {
			checkBitmaps(t, spaces[i])
			if err := spaces[i].Read(0, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, model[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMergeLastWriterWins(t *testing.T) {
	parent := NewSpace()
	if err := parent.SetPerm(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(0, []byte("pp")); err != nil {
		t.Fatal(err)
	}
	child := NewSpace()
	if _, err := child.CopyFrom(parent, 0, 0, PageSize); err != nil {
		t.Fatal(err)
	}
	snap, _ := child.Snapshot()
	if err := parent.Write(0, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	if err := child.Write(0, []byte("Z")); err != nil { // conflicts with parent's X
		t.Fatal(err)
	}
	st, err := MergeEx(parent, child, snap, 0, PageSize, MergeConfig{Mode: MergeLastWriter})
	if err != nil {
		t.Fatalf("LWW merge errored: %v", err)
	}
	if st.BytesMerged != 1 {
		t.Errorf("BytesMerged = %d, want 1", st.BytesMerged)
	}
	var b [2]byte
	if err := parent.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	// Child's Z wins over parent's X at byte 0; parent's Y survives at byte 1.
	if string(b[:]) != "ZY" {
		t.Errorf("LWW result = %q, want ZY", b[:])
	}
}
