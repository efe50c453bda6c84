package vm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The root-sharing walk (shareRoot) against the per-slot loops Snapshot,
// CopyAllFrom, Resnap and CopyFrom's whole-table path each ran before it,
// kept here as oracles. Two worlds are built from one seed — spaces whose
// roots hold fresh tables, tables shared with other slots and spaces, and
// nil, clustered at the edges of the walk's 64-slot compare blocks — and
// each operation runs through the product on one and the oracle on the
// other. They must agree on the stats returned, on every root slot's
// table identity and reference count and every backed page's count, and,
// once everything is freed, on a frame pool with nothing left out.

// oracleShare is the per-slot loop: slots [dst, dst+n) of s take the
// tables of slots [src, src+n) of from, one slot at a time, no block skip.
func oracleShare(s, from *Space, src, dst, n int) (st CopyStats) {
	for j := 0; j < n; j++ {
		srcT, dstT := from.root[src+j], s.root[dst+j]
		if srcT == dstT {
			continue
		}
		s.root[dst+j] = shareTable(srcT)
		s.frames.dropTable(dstT)
		if srcT != nil {
			st.TablesShared++
		}
	}
	return st
}

// oracleSnapshot is Snapshot's loop: every non-nil table shared into a
// fresh space.
func oracleSnapshot(s *Space) (*Space, CopyStats) {
	snap := &Space{frames: s.frames}
	var st CopyStats
	for i, t := range s.root {
		if t == nil {
			continue
		}
		snap.root[i] = shareTable(t)
		st.TablesShared++
	}
	return snap, st
}

// shareSlots are the root slots the random roots use: both edges of the
// first compare blocks, the last slot, and a few in between.
var shareSlots = []int{0, 1, 2, 62, 63, 64, 65, 127, 128, 129, 300, 511, 512, 960, 1022, 1023}

// shareWorld is one side of a trial: a frame pool and the spaces on it.
type shareWorld struct {
	f      *Frames
	spaces []*Space
}

func newShareWorld(seed int64) *shareWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &shareWorld{f: NewFrames()}
	for i := 0; i < 3; i++ {
		w.spaces = append(w.spaces, w.f.NewSpace())
	}
	for _, s := range w.spaces {
		for _, l1 := range shareSlots {
			switch rng.Intn(4) {
			case 0: // left nil
			case 1, 2:
				t := w.f.table(true)
				for k := rng.Intn(3); k >= 0; k-- {
					pg := w.f.page(true)
					pg.data[0] = byte(rng.Intn(256))
					t.set(k*300+rng.Intn(300), pte{pg: pg, perm: PermRW})
				}
				s.root[l1] = t
			case 3: // a table held elsewhere, if one is
				o := w.spaces[rng.Intn(len(w.spaces))]
				s.root[l1] = shareTable(o.root[shareSlots[rng.Intn(len(shareSlots))]])
			}
		}
	}
	// A snapshot of the first space that has since drifted: some slots
	// replaced, some dropped.
	snap, _ := oracleSnapshot(w.spaces[0])
	for _, l1 := range shareSlots {
		if rng.Intn(3) == 0 {
			snap.frames.dropTable(snap.root[l1])
			snap.root[l1] = shareTable(w.spaces[rng.Intn(len(w.spaces))].root[l1])
		}
	}
	w.spaces = append(w.spaces, snap)
	return w
}

// shape lists every root slot of every space as a table identity numbered
// by first encounter (-1 for nil) and its reference count, followed by the
// reference count of each page the table backs.
func (w *shareWorld) shape() []int {
	var out []int
	tables := make(map[*table]int)
	for _, s := range w.spaces {
		for _, t := range s.root {
			if t == nil {
				out = append(out, -1)
				continue
			}
			out = append(out, firstSeen(tables, t), int(t.refs.Load()))
			for pg := range t.pages {
				out = append(out, int(pg.refs.Load()))
			}
		}
	}
	return out
}

// free releases every space and reports what the pool still has out.
func (w *shareWorld) free() error {
	for _, s := range w.spaces {
		s.Free()
	}
	if err := checkFrames(w.f, nil); err != nil {
		return err
	}
	if n := w.f.Live(); n != 0 {
		return fmt.Errorf("%d frames still out after every space was freed", n)
	}
	return nil
}

func TestShareRootMatchesPerSlotLoops(t *testing.T) {
	type op struct {
		name   string
		walk   func(w *shareWorld) string
		oracle func(w *shareWorld) string
	}
	trials := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		i, j := rng.Intn(4), rng.Intn(4)
		slot := func() int {
			if rng.Intn(2) == 0 {
				return shareSlots[rng.Intn(len(shareSlots))]
			}
			return rng.Intn(tableEntries)
		}
		src, dst, n := slot(), slot(), rng.Intn(tableEntries+1)
		if rng.Intn(2) == 0 { // a run ending at or just past a block edge
			n = []int{1, 2, 63, 64, 65, 127, 128, 129}[rng.Intn(8)]
		}
		n = min(n, tableEntries-max(src, dst))
		if i == j && rng.Intn(2) == 0 {
			src = dst // a self-copy onto itself
		}
		for _, o := range []op{
			{"Snapshot", func(w *shareWorld) string {
				snap, st := w.spaces[i].Snapshot()
				w.spaces = append(w.spaces, snap)
				return fmt.Sprint(st)
			}, func(w *shareWorld) string {
				snap, st := oracleSnapshot(w.spaces[i])
				w.spaces = append(w.spaces, snap)
				return fmt.Sprint(st)
			}},
			{"CopyAllFrom", func(w *shareWorld) string {
				return fmt.Sprint(w.spaces[i].CopyAllFrom(w.spaces[j]))
			}, func(w *shareWorld) string {
				return fmt.Sprint(oracleShare(w.spaces[i], w.spaces[j], 0, 0, tableEntries))
			}},
			{"Resnap", func(w *shareWorld) string {
				got, st := w.spaces[i].Resnap(w.spaces[j])
				return fmt.Sprint(got == w.spaces[j], st)
			}, func(w *shareWorld) string {
				return fmt.Sprint(true, oracleShare(w.spaces[j], w.spaces[i], 0, 0, tableEntries))
			}},
			{"CopyFrom", func(w *shareWorld) string {
				st, err := w.spaces[i].CopyFrom(w.spaces[j], Addr(src)<<l1Shift, Addr(dst)<<l1Shift, uint64(n)*tableSpan)
				return fmt.Sprint(st, err)
			}, func(w *shareWorld) string {
				if i == j && src != dst {
					return fmt.Sprint(CopyStats{}, errors.New("vm: overlapping self-copy unsupported"))
				}
				return fmt.Sprint(oracleShare(w.spaces[i], w.spaces[j], src, dst, n), nil)
			}},
		} {
			a, b := newShareWorld(seed), newShareWorld(seed)
			if !slices.Equal(a.shape(), b.shape()) {
				t.Fatalf("seed %d: the two worlds were built differently", seed)
			}
			ra, rb := o.walk(a), o.oracle(b)
			if ra != rb {
				t.Fatalf("seed %d %s(%d, %d, src %d, dst %d, n %d): walk returned %s, per-slot loop %s",
					seed, o.name, i, j, src, dst, n, ra, rb)
			}
			if !slices.Equal(a.shape(), b.shape()) {
				t.Fatalf("seed %d %s(%d, %d, src %d, dst %d, n %d): roots or reference counts differ from the per-slot loop's",
					seed, o.name, i, j, src, dst, n)
			}
			for k, w := range []*shareWorld{a, b} {
				if err := w.free(); err != nil {
					t.Fatalf("seed %d %s, %s side: %v", seed, o.name, []string{"walk", "per-slot loop"}[k], err)
				}
			}
			trials++
		}
	}
	if trials == 0 {
		t.Fatal("no trials ran")
	}
}

// TestTableCopyToOtherAddressSharesTables copies whole tables between
// different addresses, as uproc copies a child's file-system image into
// its parent's scratch region: the copy shares tables and no pages, reads
// byte-equal to a page-by-page copy, and a later write on either side
// stays on that side.
func TestTableCopyToOtherAddressSharesTables(t *testing.T) {
	const (
		srcAddr = Addr(2 * tableSpan)
		dstAddr = Addr(4 * tableSpan)
		size    = 2 * tableSpan
		second  = Addr(tableSpan) // offset of the copy's second table
	)
	f := NewFrames()
	src := f.NewSpace()
	if err := src.SetPerm(srcAddr, size, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := src.SetPerm(srcAddr+PageSize, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Addr{0, 2, 1023, 1024, 2047} {
		if err := src.Write(srcAddr+p*PageSize+Addr(rng.Intn(PageSize-8)), randBytes(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}

	dst := f.NewSpace()
	if err := dst.SetPerm(dstAddr, size, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteU32(dstAddr+5*PageSize, 0xdead); err != nil { // dropped by the copy
		t.Fatal(err)
	}
	st, err := dst.CopyFrom(src, srcAddr, dstAddr, size)
	if err != nil {
		t.Fatal(err)
	}
	if st != (CopyStats{TablesShared: 2}) {
		t.Fatalf("table-aligned copy to another address: %+v, want 2 tables shared and no pages", st)
	}

	// The oracle: the same copy a page at a time.
	want := f.NewSpace()
	for off := uint64(0); off < size; off += PageSize {
		if _, err := want.CopyFrom(src, srcAddr+Addr(off), dstAddr+Addr(off), PageSize); err != nil {
			t.Fatal(err)
		}
	}
	for off := uint64(0); off < size; off += PageSize {
		a := dstAddr + Addr(off)
		if g, w := dst.entry(a).perm, want.entry(a).perm; g != w {
			t.Fatalf("page %#x: perm %v, page-by-page copy %v", a, g, w)
		}
		if !bytes.Equal(dataOf(dst.entry(a).pg)[:], dataOf(want.entry(a).pg)[:]) {
			t.Fatalf("page %#x differs from the page-by-page copy", a)
		}
	}

	// Writes after the copy stay private to the side that made them.
	read := func(s *Space, a Addr) uint32 {
		t.Helper()
		v, err := s.ReadU32(a)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if err := dst.WriteU32(dstAddr+8, 1); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteU32(srcAddr+second+8, 2); err != nil {
		t.Fatal(err)
	}
	if got, w := read(src, srcAddr+8), read(want, dstAddr+8); got != w {
		t.Fatalf("source reads %#x after a destination write, want the copied %#x", got, w)
	}
	if got, w := read(dst, dstAddr+second+8), read(want, dstAddr+second+8); got != w {
		t.Fatalf("destination reads %#x after a source write, want the copied %#x", got, w)
	}
	if read(dst, dstAddr+8) != 1 || read(src, srcAddr+second+8) != 2 {
		t.Fatal("a write after the copy did not land on its own side")
	}
	for _, s := range []*Space{src, dst, want} {
		s.Free()
	}
	if n := f.Live(); n != 0 {
		t.Fatalf("%d frames out after every space was freed", n)
	}
}
