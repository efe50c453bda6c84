package vm

import (
	"fmt"
	"math/rand"
	"testing"
)

// deltaPagesOf re-derives the delta page set from a run list, for
// comparisons against ground truth.
func deltaPagesOf(runs []PageRun) map[Addr]bool {
	set := make(map[Addr]bool)
	for _, r := range runs {
		for i := 0; i < r.Pages; i++ {
			set[r.Addr+Addr(i)<<PageShift] = true
		}
	}
	return set
}

func TestDeltaRunsMatchesMergeStats(t *testing.T) {
	// Randomized page churn: DeltaRuns must name exactly the pages the
	// child wrote, exactly the pages whose entries differ slot by slot,
	// and exactly the pages a Merge over the same range processes
	// (adopted + compared); a space sharing every table with the child
	// must get the same runs.
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

		runs := DeltaRuns(child, snap, 0, pages*PageSize, 0)
		got := deltaPagesOf(runs)
		for a := range touched {
			if !got[a] {
				t.Fatalf("trial %d: touched page %#x missing from delta", trial, a)
			}
		}
		for a := range got {
			if !touched[a] {
				t.Fatalf("trial %d: page %#x in delta but never written", trial, a)
			}
		}
		for p := 0; p < pages; p++ {
			a := Addr(p) << PageShift
			if differs := child.entry(a).pg != snap.entry(a).pg; differs != got[a] {
				t.Fatalf("trial %d: page %#x entries differ %v, in delta %v", trial, a, differs, got[a])
			}
		}
		sharer := NewSpace()
		sharer.CopyAllFrom(child)
		if again := DeltaRuns(sharer, snap, 0, pages*PageSize, 0); fmt.Sprint(again) != fmt.Sprint(runs) {
			t.Fatalf("trial %d: a space sharing the child's tables gets runs %v, the child %v", trial, again, runs)
		}
		sharer.Free()

		// The merge over the same range must process exactly these pages.
		dst := NewSpace()
		dst.CopyAllFrom(parent)
		st, err := Merge(dst, child, snap, 0, pages*PageSize)
		if err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		if st.PagesAdopted+st.PagesCompared != len(got) {
			t.Fatalf("trial %d: merge processed %d pages, delta names %d",
				trial, st.PagesAdopted+st.PagesCompared, len(got))
		}
		snap.Free()
	}
}

func TestDeltaRunsCoalescingAndCap(t *testing.T) {
	parent := NewSpace()
	if err := parent.SetPerm(0, 64*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	child := NewSpace()
	child.CopyAllFrom(parent)
	snap, _ := child.Snapshot()
	// Two contiguous blocks: pages [4,12) and [20,23).
	for p := 4; p < 12; p++ {
		if err := child.WriteU32(Addr(p)<<PageShift, 1); err != nil {
			t.Fatal(err)
		}
	}
	for p := 20; p < 23; p++ {
		if err := child.WriteU32(Addr(p)<<PageShift, 1); err != nil {
			t.Fatal(err)
		}
	}
	runs := DeltaRuns(child, snap, 0, 64*PageSize, 0)
	want := []PageRun{{4 << PageShift, 8}, {20 << PageShift, 3}}
	if len(runs) != 2 || runs[0] != want[0] || runs[1] != want[1] {
		t.Fatalf("runs = %+v, want %+v", runs, want)
	}
	// Capped at 3 pages per run: the 8-page block splits 3+3+2.
	capped := DeltaRuns(child, snap, 0, 64*PageSize, 3)
	if len(capped) != 4 || capped[0].Pages != 3 || capped[1].Pages != 3 ||
		capped[2].Pages != 2 || capped[3].Pages != 3 {
		t.Fatalf("capped runs = %+v", capped)
	}
	// Range narrowing: only the second block is visible.
	narrow := DeltaRuns(child, snap, 16<<PageShift, 32*PageSize, 0)
	if len(narrow) != 1 || narrow[0] != (PageRun{20 << PageShift, 3}) {
		t.Fatalf("narrowed runs = %+v", narrow)
	}
}
