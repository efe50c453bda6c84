package vm

import (
	"math/rand"
	"slices"
	"testing"
)

// mergeMoved merges cur's changes since ref over [addr, addr+size) into
// dst and returns the pages the merge named through MergeConfig.Moved.
func mergeMoved(t *testing.T, dst, cur, ref *Space, addr Addr, size uint64) ([]Addr, MergeStats) {
	t.Helper()
	var moved []Addr
	st, err := MergeEx(dst, cur, ref, addr, size, MergeConfig{Moved: func(pa Addr) { moved = append(moved, pa) }})
	if err != nil {
		t.Fatal(err)
	}
	return moved, st
}

func TestMergeMovedMatchesMergeStats(t *testing.T) {
	// Randomized page churn: Moved must name exactly the pages the child
	// wrote, exactly the pages whose entries differ slot by slot, in
	// strictly ascending order, one per page the merge adopts or
	// compares; a space sharing every table with the child must get the
	// same list. Three merges cover both walks: over the written span
	// (the per-slot walk), over the whole table into a parent that has
	// not touched it (whole-table adoption), and over the whole table
	// into a parent that has.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		const pages = 512
		parent := NewSpace()
		if err := parent.SetPerm(0, pages*PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pages; p += 3 {
			if err := parent.WriteU32(Addr(p)<<PageShift, uint32(p)); err != nil {
				t.Fatal(err)
			}
		}
		child := NewSpace()
		child.CopyAllFrom(parent)
		snap, _ := child.Snapshot()

		touched := make(map[Addr]bool)
		for i := 0; i < 64; i++ {
			p := Addr(rng.Intn(pages))
			a := p << PageShift
			if err := child.WriteU32(a+Addr(rng.Intn(1024)*4), rng.Uint32()); err != nil {
				t.Fatal(err)
			}
			touched[a] = true
		}

		var first []Addr
		for _, tc := range []struct {
			name        string
			size        uint64
			touchParent bool
			tables      int
		}{
			{"span", pages * PageSize, false, 0},
			{"table", tableEntries * PageSize, false, 1},
			{"touched table", tableEntries * PageSize, true, 0},
		} {
			dst := NewSpace()
			dst.CopyAllFrom(parent)
			if tc.touchParent {
				// A page outside the child's span: no conflict, but the
				// parent's table is its own now.
				if err := dst.SetPerm(pages*PageSize, PageSize, PermRW); err != nil {
					t.Fatal(err)
				}
				if err := dst.WriteU32(pages*PageSize, 1); err != nil {
					t.Fatal(err)
				}
			}
			moved, st := mergeMoved(t, dst, child, snap, 0, tc.size)
			dst.Free()
			if st.TablesAdopted != tc.tables {
				t.Fatalf("trial %d %s: %d tables adopted, want %d", trial, tc.name, st.TablesAdopted, tc.tables)
			}
			if len(moved) != st.PagesAdopted+st.PagesCompared {
				t.Fatalf("trial %d %s: Moved named %d pages, merge adopted %d and compared %d",
					trial, tc.name, len(moved), st.PagesAdopted, st.PagesCompared)
			}
			for i := 1; i < len(moved); i++ {
				if moved[i] <= moved[i-1] {
					t.Fatalf("trial %d %s: %#x named after %#x", trial, tc.name, moved[i], moved[i-1])
				}
			}
			got := make(map[Addr]bool, len(moved))
			for _, a := range moved {
				got[a] = true
				if !touched[a] {
					t.Fatalf("trial %d %s: page %#x named but never written", trial, tc.name, a)
				}
			}
			for p := 0; p < pages; p++ {
				a := Addr(p) << PageShift
				if differs := child.entry(a).pg != snap.entry(a).pg; differs != got[a] {
					t.Fatalf("trial %d %s: page %#x entries differ %v, named %v", trial, tc.name, a, differs, got[a])
				}
			}
			if first == nil {
				first = moved
			} else if !slices.Equal(moved, first) {
				t.Fatalf("trial %d: %s names %#x, span %#x", trial, tc.name, moved, first)
			}
		}
		if len(first) != len(touched) {
			t.Fatalf("trial %d: %d pages named, %d written", trial, len(first), len(touched))
		}

		sharer := NewSpace()
		sharer.CopyAllFrom(child)
		dst := NewSpace()
		dst.CopyAllFrom(parent)
		if again, _ := mergeMoved(t, dst, sharer, snap, 0, pages*PageSize); !slices.Equal(again, first) {
			t.Fatalf("trial %d: a space sharing the child's tables names %#x, the child %#x", trial, again, first)
		}
		dst.Free()
		sharer.Free()
		snap.Free()
	}
}
