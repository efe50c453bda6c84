package vm

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillPages maps n pages RW and writes a deterministic pattern.
func fillPages(t *testing.T, s *Space, n int, salt byte) {
	t.Helper()
	if err := s.SetPerm(0, uint64(n)*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for p := 0; p < n; p++ {
		for i := range buf {
			buf[i] = byte(i) ^ byte(p) ^ salt
		}
		if err := s.Write(Addr(p)*PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// readAll returns the first n pages of a space as one slice.
func readAll(t *testing.T, s *Space, n int) []byte {
	t.Helper()
	out := make([]byte, n*PageSize)
	if err := s.Read(0, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCleanSinceTracksMutation(t *testing.T) {
	s := NewSpace()
	fillPages(t, s, 4, 0)
	snap, _ := s.Snapshot()
	if !s.CleanSince(snap) {
		t.Fatal("freshly snapshotted space not clean")
	}
	if err := s.WriteU32(100, 42); err != nil {
		t.Fatal(err)
	}
	if s.CleanSince(snap) {
		t.Fatal("space reported clean after a write")
	}
	snap2, _ := s.Resnap(snap)
	if !s.CleanSince(snap2) {
		t.Fatal("space not clean immediately after Resnap")
	}
	if s.CleanSince(NewSpace()) {
		t.Fatal("clean against an unrelated space")
	}
	if s.CleanSince(nil) {
		t.Fatal("clean against nil")
	}
}

func TestResnapMatchesFreshSnapshot(t *testing.T) {
	// Two identical child spaces diverge identically from their parent;
	// one maintains its snapshot with Resnap, the other from scratch.
	// Merging each into identical parents must agree on bytes and on
	// every semantic stat.
	const pages = 8
	parent := NewSpace()
	fillPages(t, parent, pages, 0)

	mk := func() (*Space, *Space) {
		c := NewSpace()
		c.CopyAllFrom(parent)
		snap, _ := c.Snapshot()
		return c, snap
	}
	a, aSnap := mk()
	b, bSnap := mk()

	mutate := func(s *Space, round byte) {
		if err := s.Write(2*PageSize+17, []byte{0xA0 ^ round, round}); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteU64(5*PageSize, uint64(round)*977); err != nil {
			t.Fatal(err)
		}
	}

	for round := byte(1); round <= 3; round++ {
		mutate(a, round)
		mutate(b, round)
		// a: incremental; b: from-scratch (the old behavior).
		var stA, stB CopyStats
		aSnap, stA = a.Resnap(aSnap)
		bSnap.Free()
		bSnap, stB = b.Snapshot()
		if stA.TablesShared > stB.TablesShared {
			t.Fatalf("round %d: incremental resnap shared %d tables, fresh %d",
				round, stA.TablesShared, stB.TablesShared)
		}
		mutate(a, round+100)
		mutate(b, round+100)

		dstA := NewSpace()
		dstA.CopyAllFrom(parent)
		dstB := NewSpace()
		dstB.CopyAllFrom(parent)
		mstA, errA := Merge(dstA, a, aSnap, 0, pages*PageSize)
		mstB, errB := Merge(dstB, b, bSnap, 0, pages*PageSize)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("round %d: merge errors differ: %v vs %v", round, errA, errB)
		}
		if mstA.TablesAdopted != mstB.TablesAdopted || mstA.PagesAdopted != mstB.PagesAdopted ||
			mstA.PagesCompared != mstB.PagesCompared || mstA.BytesMerged != mstB.BytesMerged {
			t.Fatalf("round %d: merge stats diverge: %+v vs %+v", round, mstA, mstB)
		}
		gotA, gotB := readAll(t, dstA, pages), readAll(t, dstB, pages)
		for i := range gotA {
			if gotA[i] != gotB[i] {
				t.Fatalf("round %d: merged byte %#x differs: %#x vs %#x", round, i, gotA[i], gotB[i])
			}
		}
		dstA.Free()
		dstB.Free()
		// Roll the reference forward for the next round on both sides.
		aSnap, _ = a.Resnap(aSnap)
		bSnap.Free()
		bSnap, _ = b.Snapshot()
	}
}

func TestResnapNoopIsFree(t *testing.T) {
	s := NewSpace()
	fillPages(t, s, 4, 7)
	snap, first := s.Snapshot()
	if first.TablesShared == 0 {
		t.Fatal("first snapshot shared no tables")
	}
	snap2, st := s.Resnap(snap)
	if snap2 != snap {
		t.Fatal("no-op Resnap did not reuse the existing snapshot")
	}
	if st != (CopyStats{}) {
		t.Fatalf("no-op Resnap charged %+v", st)
	}
	if !s.CleanSince(snap2) {
		t.Fatal("pair not clean after no-op Resnap")
	}
}

func TestResnapFallsBackAfterPrecisionLoss(t *testing.T) {
	s := NewSpace()
	fillPages(t, s, 4, 3)
	snap, _ := s.Snapshot()
	other := NewSpace()
	fillPages(t, other, 4, 9)
	s.CopyAllFrom(other) // a whole-space replacement
	snap2, st := s.Resnap(snap)
	if st.TablesShared == 0 {
		t.Fatal("fallback resnap shared no tables")
	}
	got := readAll(t, snap2, 4)
	want := readAll(t, s, 4)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fallback snapshot byte %#x = %#x, want %#x", i, got[i], want[i])
		}
	}
	other.Free()
}

// TestResnapSharesRootAfterAnyHistory calls Resnap on snapshots whatever
// happened to them or their space since — a whole-space replacement, a
// freed space, a freed snapshot, a snapshot written to, tables added at
// the first and last slots of Resnap's compare blocks, a pair decoded
// from an image — and requires each time the old snapshot back,
// sharing every root slot with the space, charged one TablesShared per
// non-nil table it had to re-share.
func TestResnapSharesRootAfterAnyHistory(t *testing.T) {
	const pages = 2*tableEntries + 8 // three tables, the third nearly empty
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, s, snap *Space) (*Space, *Space)
	}{
		{"after CopyAllFrom", func(t *testing.T, s, snap *Space) (*Space, *Space) {
			other := NewSpace()
			fillPages(t, other, 4, 9)
			s.CopyAllFrom(other)
			return s, snap
		}},
		{"after the space is freed", func(t *testing.T, s, snap *Space) (*Space, *Space) {
			s.Free()
			return s, snap
		}},
		{"after the snapshot is freed", func(t *testing.T, s, snap *Space) (*Space, *Space) {
			snap.Free()
			return s, snap
		}},
		{"on a mutated snapshot", func(t *testing.T, s, snap *Space) (*Space, *Space) {
			if err := snap.WriteU32(tableEntries*PageSize+8, 5); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteU32(3*PageSize, 6); err != nil {
				t.Fatal(err)
			}
			return s, snap
		}},
		{"at the edges of Resnap's blocks", func(t *testing.T, s, snap *Space) (*Space, *Space) {
			for _, l1 := range []int{resnapSpan - 1, resnapSpan, tableEntries - 1} {
				a := Addr(l1) << l1Shift
				if err := s.SetPerm(a, PageSize, PermRW); err != nil {
					t.Fatal(err)
				}
				if err := s.WriteU32(a, 8); err != nil {
					t.Fatal(err)
				}
			}
			return s, snap
		}},
		{"on a decoded pair", func(t *testing.T, s, snap *Space) (*Space, *Space) {
			if err := s.WriteU32(2*tableEntries*PageSize, 7); err != nil {
				t.Fatal(err)
			}
			spaces, err := DecodeForest(encodePair(s, snap))
			if err != nil {
				t.Fatal(err)
			}
			return spaces[0], spaces[1]
		}},
	} {
		s := NewSpace()
		fillPages(t, s, pages, 1)
		snap, _ := s.Snapshot()
		s, snap = tc.setup(t, s, snap)
		want := 0
		for l1 := range s.root {
			if s.root[l1] != snap.root[l1] && s.root[l1] != nil {
				want++
			}
		}
		got, st := s.Resnap(snap)
		if got != snap {
			t.Errorf("%s: Resnap did not return the old snapshot", tc.name)
		}
		if got.root != s.root {
			t.Errorf("%s: the snapshot does not share every root slot with the space", tc.name)
		}
		if st != (CopyStats{TablesShared: want}) {
			t.Errorf("%s: Resnap charged %+v, want %d re-shared tables", tc.name, st, want)
		}
		if !s.CleanSince(got) {
			t.Errorf("%s: space not clean against its refreshed snapshot", tc.name)
		}
	}
}

// TestCleanSinceSound runs the frame-pool scripts — writes, Zero,
// SetPerm, CopyFrom, CopyAllFrom, merges, Snapshot and Resnap — and after
// every step holds each space CleanSince its snapshot reports on to equal
// permissions everywhere and equal bytes on every page the scripts touch.
func TestCleanSinceSound(t *testing.T) {
	clean, dirty := 0, 0
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		w := newFramesWorld(t, nil)
		for step := 0; step < 150; step++ {
			op := drawFramesOp(rng)
			w.apply(op)
			for i, s := range w.s {
				snap := w.snap[i]
				if op.kind == opResnap && i == op.i && !s.CleanSince(snap) {
					t.Fatalf("seed %d step %d: space %d not clean right after Resnap", seed, step, i)
				}
				if !s.CleanSince(snap) {
					dirty++
					continue
				}
				clean++
				for a := Addr(0); uint64(a) < framesSpan; a += PageSize {
					if s.entry(a).perm != snap.entry(a).perm {
						t.Fatalf("seed %d step %d: space %d clean, but page %#x perm %v, snapshot %v",
							seed, step, i, a, s.entry(a).perm, snap.entry(a).perm)
					}
				}
				for _, pn := range framesHot {
					if a := pn * PageSize; !bytes.Equal(dataOf(s.entry(a).pg)[:], dataOf(snap.entry(a).pg)[:]) {
						t.Fatalf("seed %d step %d: space %d clean, but page %#x differs from its snapshot", seed, step, i, a)
					}
				}
			}
		}
	}
	if clean == 0 || dirty == 0 {
		t.Fatalf("scripts never exercised both answers: %d clean, %d not", clean, dirty)
	}
}

func TestResnapRepeatedRoundsStayCoherent(t *testing.T) {
	// Simulates the dsched steady state: copy from master, resnap, write,
	// merge back, many rounds; contents must track a plain model.
	const pages = 16
	master := NewSpace()
	fillPages(t, master, pages, 0)
	child := NewSpace()
	child.CopyAllFrom(master)
	var snap *Space
	snap, _ = child.Snapshot()
	model := readAll(t, master, pages)

	for round := 0; round < 10; round++ {
		// Resync: copy master into child, refresh the snapshot.
		if _, err := child.CopyFrom(master, 0, 0, pages*PageSize); err != nil {
			t.Fatal(err)
		}
		snap, _ = child.Resnap(snap)
		// Quantum: the child writes a couple of bytes.
		a1 := Addr(round%pages)*PageSize + Addr(round)
		if err := child.Write(a1, []byte{byte(0x40 + round)}); err != nil {
			t.Fatal(err)
		}
		model[int(a1)] = byte(0x40 + round)
		// Commit: merge child into master.
		if _, err := MergeEx(master, child, snap, 0, pages*PageSize, MergeConfig{Mode: MergeLastWriter}); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, master, pages)
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("round %d: master byte %#x = %#x, want %#x", round, i, got[i], model[i])
			}
		}
	}
}
