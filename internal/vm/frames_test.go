package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// Tests that make recycling safe. A space drawing on a frame pool must
// behave exactly as one on the heap — same bytes, same merge statistics
// and conflicts, same sharing graph and reference counts — and nothing the
// pool holds may be reachable from a live space (checkFrames). Between
// steps the pool is poisoned, so a recycled page or table that is not
// cleared where it must be reads differently from the heap's.

// framesHot are the pages the scripts touch: both sides of the boundary
// between the first two level-2 tables, so whole-table sharing and adoption
// and the per-page paths all come up.
var framesHot = []Addr{0, 1, 2, 3, 4, 1021, 1022, 1023, 1024, 1025, 1026, 1027}

const (
	framesSlots = 4
	framesSpan  = 2 * tableSpan
)

// framesWorld is one side of a script: a space per slot and, once taken,
// its snapshot.
type framesWorld struct {
	s    [framesSlots]*Space
	snap [framesSlots]*Space
}

func newFramesWorld(t *testing.T, f *Frames) *framesWorld {
	w := &framesWorld{}
	for i := range w.s {
		w.s[i] = f.NewSpace()
		if err := w.s[i].SetPerm(0, framesSpan, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *framesWorld) live() []*Space {
	var out []*Space
	for i, s := range w.s {
		out = append(out, s)
		if w.snap[i] != nil {
			out = append(out, w.snap[i])
		}
	}
	return out
}

// framesOp is one script step, drawn once and applied to both worlds.
type framesOp struct {
	kind      int
	i, j      int // the slot acted on, and the other one
	addr, src Addr
	size      uint64
	data      []byte
	words     []uint32
	perm      Perm
	mode      MergeMode
}

const (
	opFork = iota
	opSnapshot
	opResnap
	opPartial
	opWhole
	opTyped
	opZero
	opSetPerm
	opCopy
	opMerge
	opFree
	numFramesOps
)

func drawFramesOp(rng *rand.Rand) framesOp {
	hot := func() Addr { return framesHot[rng.Intn(len(framesHot))] * PageSize }
	op := framesOp{kind: rng.Intn(numFramesOps), i: rng.Intn(framesSlots), j: rng.Intn(framesSlots),
		addr: hot(), src: hot(), perm: PermRW, mode: MergeMode(rng.Intn(2))}
	switch op.kind {
	case opPartial:
		op.addr += Addr(rng.Intn(PageSize))
		op.data = randBytes(rng, 1+rng.Intn(PageSize-1))
	case opWhole:
		op.data = randBytes(rng, PageSize*(1+rng.Intn(2)))
	case opTyped:
		if rng.Intn(2) == 0 {
			op.addr += Addr(rng.Intn(PageSize/4) * 4)
		}
		op.words = make([]uint32, 1+rng.Intn(2*PageSize/4))
		for k := range op.words {
			op.words[k] = rng.Uint32()
		}
	case opZero, opSetPerm:
		op.size = PageSize * uint64(1+rng.Intn(2))
		if rng.Intn(6) == 0 {
			op.perm = PermR
		}
	case opCopy:
		op.size = PageSize * uint64(1+rng.Intn(3))
		if rng.Intn(3) == 0 { // whole tables: the sharing fast path
			op.addr = Addr(uint64(rng.Intn(2)) * tableSpan)
			op.src, op.size = op.addr, framesSpan-uint64(op.addr)
		}
		if op.i == op.j { // a self-copy must be onto itself
			op.src = op.addr
		}
	}
	return op
}

// apply runs op on w and reports what it returned.
func (w *framesWorld) apply(op framesOp) string {
	s, o := w.s[op.i], w.s[op.j]
	switch op.kind {
	case opFork:
		if op.i != op.j {
			return fmt.Sprint(o.CopyAllFrom(s))
		}
	case opSnapshot:
		if w.snap[op.i] != nil {
			w.snap[op.i].Free()
		}
		var st CopyStats
		w.snap[op.i], st = s.Snapshot()
		return fmt.Sprint(st)
	case opResnap:
		var st CopyStats
		w.snap[op.i], st = s.Resnap(w.snap[op.i])
		return fmt.Sprint(st)
	case opPartial, opWhole:
		return fmt.Sprint(s.Write(op.addr, op.data))
	case opTyped:
		return fmt.Sprint(s.WriteU32s(op.addr, op.words))
	case opZero:
		return fmt.Sprint(s.Zero(op.addr&^pageMask, op.size, op.perm))
	case opSetPerm:
		return fmt.Sprint(s.SetPerm(op.addr&^pageMask, op.size, op.perm))
	case opCopy:
		st, err := s.CopyFrom(o, op.src, op.addr, op.size)
		return fmt.Sprint(st, err)
	case opMerge:
		if op.i != op.j && w.snap[op.j] != nil {
			st, err := MergeEx(s, o, w.snap[op.j], 0, framesSpan, MergeConfig{Mode: op.mode})
			return fmt.Sprint(st, err)
		}
	case opFree:
		s.Free()
		if w.snap[op.i] != nil {
			w.snap[op.i].Free()
			w.snap[op.i] = nil
		}
		return fmt.Sprint(s.SetPerm(0, framesSpan, PermRW))
	}
	return ""
}

// shape is the sharing graph over the hot pages of every live space, in
// fives: the table's identity (numbered by first encounter, -1 for none)
// and reference count, the page's identity and count, and the permission.
func (w *framesWorld) shape() []int {
	var out []int
	tables, pages := make(map[*table]int), make(map[*page]int)
	for _, s := range w.live() {
		for _, pn := range framesHot {
			pa := pn * PageSize
			l1, _ := split(pa)
			tid, trefs, pid, prefs := -1, int32(0), -1, int32(0)
			if t := s.root[l1]; t != nil {
				tid, trefs = firstSeen(tables, t), t.refs.Load()
			}
			e := s.entry(pa)
			if e.pg != nil {
				pid, prefs = firstSeen(pages, e.pg), e.pg.refs.Load()
			}
			out = append(out, tid, int(trefs), pid, int(prefs), int(e.perm))
		}
	}
	return out
}

func firstSeen[K comparable](m map[K]int, k K) int {
	id, ok := m[k]
	if !ok {
		id = len(m)
		m[k] = id
	}
	return id
}

// shapeDiff names the first hot page whose entry differs between two
// shapes, or returns "".
func shapeDiff(a, b []int) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d live spaces, heap side %d", len(a)/5/len(framesHot), len(b)/5/len(framesHot))
	}
	for i := 0; i < len(a); i += 5 {
		if !slices.Equal(a[i:i+5], b[i:i+5]) {
			n := i / 5
			return fmt.Sprintf("space %d page %#x: table, refs, page, refs, perm %v, heap side %v",
				n/len(framesHot), framesHot[n%len(framesHot)]*PageSize, a[i:i+5], b[i:i+5])
		}
	}
	return ""
}

// sameBytes names the first hot page whose bytes differ between two worlds
// of one shape, or returns "".
func sameBytes(a, b *framesWorld) string {
	la, lb := a.live(), b.live()
	for si := range la {
		for _, pn := range framesHot {
			pa := pn * PageSize
			if !bytes.Equal(dataOf(la[si].entry(pa).pg)[:], dataOf(lb[si].entry(pa).pg)[:]) {
				return fmt.Sprintf("space %d page %#x", si, pa)
			}
		}
	}
	return ""
}

func TestFramesMatchHeap(t *testing.T) {
	seeds, steps := 40, 150
	if testing.Short() {
		seeds = 8
	}
	recycled := false
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := NewFrames()
		a, b := newFramesWorld(t, f), newFramesWorld(t, nil)
		for step := 0; step < steps; step++ {
			op := drawFramesOp(rng)
			if ra, rb := a.apply(op), b.apply(op); ra != rb {
				t.Fatalf("seed %d step %d op %d: pooled side returned %q, heap side %q", seed, step, op.kind, ra, rb)
			}
			if err := checkFrames(f, a.live()); err != nil {
				t.Fatalf("seed %d step %d op %d: %v", seed, step, op.kind, err)
			}
			for i, s := range a.live() {
				if s.frames != f {
					t.Fatalf("seed %d step %d op %d: live space %d lost the pool", seed, step, op.kind, i)
				}
			}
			if diff := shapeDiff(a.shape(), b.shape()); diff != "" {
				t.Fatalf("seed %d step %d op %d: sharing graphs differ: %s", seed, step, op.kind, diff)
			}
			if diff := sameBytes(a, b); diff != "" {
				t.Fatalf("seed %d step %d op %d: %s differs from the heap side's", seed, step, op.kind, diff)
			}
			if p, tb := pooled(f); p+tb > 0 {
				recycled = true
			}
			poisonFrames(f)
		}
		for _, s := range a.live() {
			s.Free()
		}
		if err := checkFrames(f, nil); err != nil {
			t.Fatalf("seed %d, everything freed: %v", seed, err)
		}
	}
	if !recycled {
		t.Fatal("no script ever freed a page or table into the pool")
	}
}

// TestRecycledPageLazyZeroStore: a recycled page that backs a store of
// less than a page to a lazy-zero slot reads zero around the bytes stored.
func TestRecycledPageLazyZeroStore(t *testing.T) {
	for _, c := range []struct {
		name  string
		store func(s *Space) error
		at    int
		want  []byte
	}{
		{"Write", func(s *Space) error { return s.Write(100, []byte{1, 2, 3}) }, 100, []byte{1, 2, 3}},
		{"WriteU32", func(s *Space) error { return s.WriteU32(PageSize-4, 0x04030201) }, PageSize - 4, []byte{1, 2, 3, 4}},
		{"WriteU32s", func(s *Space) error { return s.WriteU32s(8, []uint32{0x04030201}) }, 8, []byte{1, 2, 3, 4}},
	} {
		f := NewFrames()
		s := f.NewSpace()
		if err := s.SetPerm(0, PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(0, bytes.Repeat([]byte{0xFF}, PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := s.Zero(0, PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		poisonFrames(f)
		if err := c.store(s); err != nil {
			t.Fatal(err)
		}
		if n, _ := pooled(f); n != 0 {
			t.Fatalf("%s: the store did not take the recycled page", c.name)
		}
		got, want := make([]byte, PageSize), make([]byte, PageSize)
		copy(want[c.at:], c.want)
		if err := s.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: a recycled page reads %x around the stored bytes", c.name, bytes.Trim(got, "\x00"))
		}
	}
}

// TestRecycledPageFromShortHasZeroTail: pageFrom on fewer than PageSize
// bytes zeroes the rest of a recycled page.
func TestRecycledPageFromShortHasZeroTail(t *testing.T) {
	f := NewFrames()
	old := f.page(false)
	f.dropPage(old)
	poisonFrames(f)
	p := f.pageFrom([]byte{1, 2, 3})
	if p != old {
		t.Fatal("pageFrom did not take the recycled page")
	}
	want := make([]byte, PageSize)
	copy(want, []byte{1, 2, 3})
	if !bytes.Equal(p.data[:], want) || p.refs.Load() != 1 {
		t.Errorf("short pageFrom: refs %d, tail %x", p.refs.Load(), bytes.Trim(p.data[3:], "\x00"))
	}
}

// TestFrameLayout pins the two frames' layout to the allocator's size
// classes. A page's bytes start at its allocation's start, which the
// 4 864-byte class aligns to 256 bytes, so every word of them is aligned;
// a field placed before data would make every typed access, page copy and
// merge word straddle. Neither frame may grow into the next size class: a
// page past 4 864 bytes or a table past 18 432 costs every frame a pool
// holds, and the allocation ceilings of the packages above count bytes.
func TestFrameLayout(t *testing.T) {
	if off := unsafe.Offsetof(page{}.data); off != 0 {
		t.Errorf("a page's bytes start %d bytes into it, want 0", off)
	}
	if n := unsafe.Sizeof(page{}); n > 4864 {
		t.Errorf("a page is %d bytes, past its 4 864-byte size class", n)
	}
	if n := unsafe.Sizeof(table{}); n > 18432 {
		t.Errorf("a table is %d bytes, past its 18 432-byte size class", n)
	}
}

// TestRecycledEmptyTableIsEmpty: the empty-table path of ownTable hands
// out a recycled table with no slot mapped and empty bitmaps.
func TestRecycledEmptyTableIsEmpty(t *testing.T) {
	f := NewFrames()
	s := f.NewSpace()
	if err := s.SetPerm(0, tableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, make([]byte, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	old := s.root[0]
	s.Free()
	poisonFrames(f)
	s2 := f.NewSpace()
	if err := s2.SetPerm(5*PageSize, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	tb := s2.root[0]
	if tb != old {
		t.Fatal("SetPerm on an empty slot did not take the recycled table")
	}
	if tb.occ != (bitmap{}) || tb.wr != (bitmap{}) || tb.rd != (bitmap{1 << 5}) {
		t.Errorf("recycled empty table: occupancy %x, read map %x, write map %x", tb.occ, tb.rd, tb.wr)
	}
	for l2, e := range tb.ptes {
		if want := (pte{perm: PermR}); l2 == 5 && e != want || l2 != 5 && e != (pte{}) {
			t.Fatalf("recycled empty table: slot %d is %+v", l2, e)
		}
	}
}

// TestDecodeForestDrawsOnPool: a forest decoded for a pool takes its pages
// and tables from it, and the restored spaces — snapshots included — free
// back into it.
func TestDecodeForestDrawsOnPool(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(10, []byte("restored")); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Snapshot()
	enc := NewForestEncoder()
	enc.Add(s)
	enc.Add(snap)

	f := NewFrames()
	old := f.NewSpace()
	if err := old.SetPerm(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := old.Write(0, bytes.Repeat([]byte{0xFF}, PageSize)); err != nil {
		t.Fatal(err)
	}
	old.Free()
	poisonFrames(f)
	spaces, err := f.DecodeForest(enc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if p, tb := pooled(f); p != 0 || tb != 0 {
		t.Errorf("decode left %d pages and %d tables in the pool", p, tb)
	}
	got, want := make([]byte, 2*PageSize), make([]byte, 2*PageSize)
	copy(want[10:], "restored")
	if err := spaces[0].Read(0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored space reads %q, %v", bytes.Trim(got, "\x00"), err)
	}
	for i, sp := range spaces {
		if sp.frames != f {
			t.Fatalf("restored space %d has no pool", i)
		}
		sp.Free()
	}
	if err := checkFrames(f, nil); err != nil {
		t.Fatal(err)
	}
	if p, tb := pooled(f); p != 1 || tb != 1 {
		t.Errorf("freeing the restored forest pooled %d pages and %d tables, want 1 and 1", p, tb)
	}
}

// TestFramesConcurrentFrees: frees reach one pool from every goroutine
// that drops a last reference — siblings breaking COW on the pages they
// share, and a parent merging an early finisher while later siblings still
// run. Rounds reuse the pool, so takes race with frees too. The parent
// ends bit-equal to the same history on the heap, and the pool ends
// holding only unreferenced, unreachable frames. It is meant for -race
// with GOMAXPROCS above 1 (`make race`).
func TestFramesConcurrentFrees(t *testing.T) {
	const (
		kids   = 4
		pages  = 48 // one table: the first merge adopts it whole while the other children still write, the later ones merge page by page
		rounds = 3
	)
	round := func(f *Frames) []byte {
		parent := f.NewSpace()
		if err := parent.SetPerm(0, pages*PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
		if err := parent.Write(0, bytes.Repeat([]byte{7}, pages*PageSize)); err != nil {
			t.Fatal(err)
		}
		children, snaps := make([]*Space, kids), make([]*Space, kids)
		done := make([]chan error, kids)
		for k := range children {
			children[k] = f.NewSpace()
			children[k].CopyAllFrom(parent)
			snaps[k], _ = children[k].Snapshot()
			done[k] = make(chan error, 1)
		}
		for k := range children {
			go func(k int) {
				var err error
				for p := 0; p < pages && err == nil; p++ {
					var w [8]byte
					binary.LittleEndian.PutUint64(w[:], uint64(k<<16|p))
					err = children[k].Write(Addr(p*PageSize+8*k), w[:])
				}
				done[k] <- err
			}(k)
		}
		for k := range children {
			if err := <-done[k]; err != nil {
				t.Fatal(err)
			}
			if _, err := Merge(parent, children[k], snaps[k], 0, pages*PageSize); err != nil {
				t.Fatal(err)
			}
			children[k].Free()
			snaps[k].Free()
		}
		out := make([]byte, pages*PageSize)
		if err := parent.Read(0, out); err != nil {
			t.Fatal(err)
		}
		parent.Free()
		return out
	}
	want := round(nil)
	f := NewFrames()
	for r := 0; r < rounds; r++ {
		if got := round(f); !bytes.Equal(got, want) {
			t.Fatalf("round %d: the pooled parent differs from the heap's", r)
		}
		if err := checkFrames(f, nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if p, _ := pooled(f); p == 0 {
		t.Fatal("nothing was freed into the pool")
	}
}

// TestDepotFramesMatchHeap: frames outlive the pool that made them. Each
// seed's script runs over two pool lifetimes. At the end of the first,
// every space is freed, the pool is poisoned and Release hands it to the
// depot, as a machine's end does; the second lifetime's pool starts empty,
// so what it does not recycle itself it takes from the depot, and every
// step must still match the heap's.
func TestDepotFramesMatchHeap(t *testing.T) {
	seeds, steps := 20, 150
	if testing.Short() {
		seeds = 4
	}
	drew := false
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		drainDepot()
		for life := 0; life < 2; life++ {
			f := NewFrames()
			a, b := newFramesWorld(t, f), newFramesWorld(t, nil)
			stocked, _ := depotLen()
			for step := 0; step < steps; step++ {
				op := drawFramesOp(rng)
				if ra, rb := a.apply(op), b.apply(op); ra != rb {
					t.Fatalf("seed %d life %d step %d op %d: pooled side returned %q, heap side %q", seed, life, step, op.kind, ra, rb)
				}
				if err := checkFrames(f, a.live()); err != nil {
					t.Fatalf("seed %d life %d step %d op %d: %v", seed, life, step, op.kind, err)
				}
				if diff := shapeDiff(a.shape(), b.shape()); diff != "" {
					t.Fatalf("seed %d life %d step %d op %d: sharing graphs differ: %s", seed, life, step, op.kind, diff)
				}
				if diff := sameBytes(a, b); diff != "" {
					t.Fatalf("seed %d life %d step %d op %d: %s differs from the heap side's", seed, life, step, op.kind, diff)
				}
				poisonFrames(f)
			}
			if p, _ := depotLen(); p < stocked {
				drew = true
			}
			for _, s := range a.live() {
				s.Free()
			}
			poisonFrames(f)
			f.Release()
			if p, tb := pooled(f); p+tb != 0 || f.Live() != 0 {
				t.Fatalf("seed %d life %d: released pool holds %d pages and %d tables, %d live", seed, life, p, tb, f.Live())
			}
			if err := checkFrames(f, nil); err != nil {
				t.Fatalf("seed %d life %d, released: %v", seed, life, err)
			}
		}
	}
	if !drew {
		t.Fatal("no second lifetime ever took a frame from the depot")
	}
}

// TestDepotBound: a stock of the depot keeps at most as many frames as
// one release has returned, and clears only the ones it keeps. Two
// machines that ran side by side release in turn: the first release
// stocks every frame, the second finds no room and leaves its frames,
// uncleared, to the collector. Once takes make room, a release fills just
// that, and a larger release raises the bound.
func TestDepotBound(t *testing.T) {
	const n = 64
	var s stock[page]
	release := func(n int) []*page {
		pages := make([]*page, n)
		for i := range pages {
			pages[i] = &page{}
			pages[i].data[0] = 0xA5
		}
		s.keep(pages, func(p *page) { clear(p.data[:]) })
		return pages
	}
	check := func(when string, pages []*page, stocked, most int) {
		t.Helper()
		if len(s.free) != stocked || s.most != most || s.clearing != 0 {
			t.Fatalf("%s: the stock holds %d of at most %d (%d clearing), want %d of at most %d", when, len(s.free), s.most, s.clearing, stocked, most)
		}
		kept := make(map[*page]bool)
		for _, pg := range s.free {
			kept[pg] = true
		}
		for i, pg := range pages {
			if cleared := pg.data[0] == 0; cleared != kept[pg] {
				t.Fatalf("%s: page %d of the release is stocked %v, cleared %v", when, i, kept[pg], cleared)
			}
		}
	}
	check("first release", release(n), n, n)
	check("second release", release(n), n, n)
	for i := 0; i < 10; i++ {
		pop(&s.mu, &s.free, nil)
	}
	check("after ten takes", release(n), n, n)
	check("a larger release", release(2*n), 2*n, 2*n)
}
