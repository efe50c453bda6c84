package vm

import (
	"bytes"
	"testing"
)

// TestMergeKeepsPagesTheChildUnmapped pins Merge's unmap rule: a page the
// child unmapped since its snapshot is not a change, and the parent keeps
// its page. The child unmaps 8 pages of a table it still holds, or the
// whole table, by a copy from an unmapped source; the parent has not
// touched the table since the fork (so the merge could adopt the child's
// table whole) or has written elsewhere in it (so the merge walks slot by
// slot). In all four the parent keeps its bytes and permissions and the
// merge reports no work.
func TestMergeKeepsPagesTheChildUnmapped(t *testing.T) {
	const pages = 16
	for _, unmapped := range []uint64{8, tableEntries} {
		for _, touched := range []bool{false, true} {
			parent := NewSpace()
			if err := parent.SetPerm(0, pages*PageSize, PermRW); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < pages; p++ {
				if err := parent.WriteU32(Addr(p)*PageSize, uint32(p+1)); err != nil {
					t.Fatal(err)
				}
			}
			child := NewSpace()
			child.CopyAllFrom(parent)
			snap, _ := child.Snapshot()
			if _, err := child.CopyFrom(NewSpace(), 8<<l1Shift, 0, unmapped*PageSize); err != nil {
				t.Fatal(err)
			}

			dst := NewSpace()
			dst.CopyAllFrom(parent)
			if touched {
				if err := dst.SetPerm(100*PageSize, PageSize, PermRW); err != nil {
					t.Fatal(err)
				}
				if err := dst.WriteU32(100*PageSize, 7); err != nil {
					t.Fatal(err)
				}
			}
			want := make([]byte, pages*PageSize)
			if err := dst.Read(0, want); err != nil {
				t.Fatal(err)
			}

			st, err := Merge(dst, child, snap, 0, tableEntries*PageSize)
			if err != nil {
				t.Fatalf("%d pages unmapped, parent touched %v: %v", unmapped, touched, err)
			}
			st.PtesScanned = 0 // iteration effort, not semantics
			if st != (MergeStats{}) {
				t.Errorf("%d pages unmapped, parent touched %v: merge stats %+v, want zeros", unmapped, touched, st)
			}
			for p := 0; p < pages; p++ {
				if e := dst.entry(Addr(p) * PageSize); e.perm != PermRW {
					t.Errorf("%d pages unmapped, parent touched %v: page %d perm %v, want %v",
						unmapped, touched, p, e.perm, PermRW)
					break
				}
			}
			got := make([]byte, pages*PageSize)
			if err := dst.Read(0, got); err != nil {
				t.Errorf("%d pages unmapped, parent touched %v: %v", unmapped, touched, err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("%d pages unmapped, parent touched %v: the parent's bytes changed", unmapped, touched)
			}
		}
	}
}

// TestMergeKeepsTheParentsPermissions pins the permission rule: the
// parent's permissions stand wherever it maps the slot. The child only
// drops page 0 (written) and page 5 (mapped, never written) to read-only;
// the parent has not touched the table since the fork, or has written
// page 2. Either way the parent's pages stay read-write with their bytes,
// and the merge adopts no table.
func TestMergeKeepsTheParentsPermissions(t *testing.T) {
	const pages = 8
	for _, touched := range []bool{false, true} {
		parent := NewSpace()
		if err := parent.SetPerm(0, pages*PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			if err := parent.WriteU32(Addr(p)*PageSize, uint32(p+1)); err != nil {
				t.Fatal(err)
			}
		}
		child := NewSpace()
		child.CopyAllFrom(parent)
		snap, _ := child.Snapshot()
		for _, p := range []Addr{0, 5} {
			if err := child.SetPerm(p*PageSize, PageSize, PermR); err != nil {
				t.Fatal(err)
			}
		}
		dst := NewSpace()
		dst.CopyAllFrom(parent)
		if touched {
			if err := dst.WriteU32(2*PageSize, 9); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]byte, pages*PageSize)
		if err := dst.Read(0, want); err != nil {
			t.Fatal(err)
		}
		st, err := Merge(dst, child, snap, 0, tableEntries*PageSize)
		if err != nil {
			t.Fatalf("parent touched %v: %v", touched, err)
		}
		if st.TablesAdopted != 0 {
			t.Errorf("parent touched %v: %d tables adopted", touched, st.TablesAdopted)
		}
		for p := 0; p < pages; p++ {
			if e := dst.entry(Addr(p) * PageSize); e.perm != PermRW {
				t.Errorf("parent touched %v: page %d perm %v, want %v", touched, p, e.perm, PermRW)
			}
		}
		got := make([]byte, pages*PageSize)
		if err := dst.Read(0, got); err != nil || !bytes.Equal(got, want) {
			t.Errorf("parent touched %v: the parent's bytes changed (%v)", touched, err)
		}
	}
}

// TestMergeUnbackedMappingIsNotAChange pins the rule for a slot the
// snapshot does not map: a child that maps it without backing it — a
// SetPerm or a Zero of page 10, never written — has not changed it. The
// child also writes page 3, so its table is no longer the snapshot's; the
// parent has not touched the table since the fork (so the merge could
// adopt the child's table whole) or has written page 2 (so it walks slot
// by slot). Both parents leave page 10 unmapped, take the child's page 3,
// and agree on every other page's bytes and permissions.
func TestMergeUnbackedMappingIsNotAChange(t *testing.T) {
	const pages, mapped = 16, 8
	for _, remap := range []struct {
		name string
		do   func(s *Space, a Addr) error
	}{
		{"SetPerm", func(s *Space, a Addr) error { return s.SetPerm(a, PageSize, PermRW) }},
		{"Zero", func(s *Space, a Addr) error { return s.Zero(a, PageSize, PermRW) }},
	} {
		name := remap.name
		var perms [2][pages]Perm
		var data [2][pages]*[PageSize]byte
		for i, touched := range []bool{false, true} {
			parent := NewSpace()
			if err := parent.SetPerm(0, mapped*PageSize, PermRW); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 4; p++ {
				if err := parent.WriteU32(Addr(p)*PageSize, uint32(p+1)); err != nil {
					t.Fatal(err)
				}
			}
			child := NewSpace()
			child.CopyAllFrom(parent)
			snap, _ := child.Snapshot()
			if err := remap.do(child, 10*PageSize); err != nil {
				t.Fatal(err)
			}
			if err := child.WriteU32(3*PageSize+8, 0xc0ffee); err != nil {
				t.Fatal(err)
			}
			dst := NewSpace()
			dst.CopyAllFrom(parent)
			if touched {
				if err := dst.WriteU32(2*PageSize+16, 9); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Merge(dst, child, snap, 0, tableEntries*PageSize)
			if err != nil {
				t.Fatalf("%s, parent touched %v: %v", name, touched, err)
			}
			if e := dst.entry(10 * PageSize); e.mapped() {
				t.Errorf("%s, parent touched %v: page 10 mapped %v (merge %+v), want unmapped",
					name, touched, e.perm, st)
			}
			if v, err := dst.ReadU32(3*PageSize + 8); err != nil || v != 0xc0ffee {
				t.Errorf("%s, parent touched %v: page 3 reads %#x (%v), want the child's %#x",
					name, touched, v, err, 0xc0ffee)
			}
			for p := range pages {
				e := dst.entry(Addr(p) * PageSize)
				perms[i][p], data[i][p] = e.perm, dataOf(e.pg)
			}
		}
		for p := range pages {
			if perms[0][p] != perms[1][p] {
				t.Errorf("%s: page %d perm %v untouched, %v touched", name, p, perms[0][p], perms[1][p])
			}
			if p != 2 && *data[0][p] != *data[1][p] {
				t.Errorf("%s: page %d bytes differ between the two parents", name, p)
			}
		}
	}
}
