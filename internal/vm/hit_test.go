package vm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Tests for the hit test (Space.hit), the early exit every load and store
// takes ahead of the cursor walk. It may admit only an access the walk
// would serve from the same page untouched. A store it admits wrongly
// lands in a page or table something else still shares, so a snapshot's,
// a sibling's or a parent's byte moves.

// hitPairs pairs each store accessor of accessOps (access_test.go) with
// the load accessor of its element type.
func hitPairs() (stores, loads []accessOp) {
	byName := make(map[string]accessOp)
	for _, op := range accessOps {
		byName[op.name] = op
	}
	for _, op := range accessOps {
		if typ, ok := strings.CutPrefix(op.name, "Write"); ok {
			stores, loads = append(stores, op), append(loads, byName["Read"+typ])
		}
	}
	return stores, loads
}

// drawHitSpan picks where an accessor stores and how many elements:
// inside a hot page, ending exactly at its end, one byte past it (so the
// span straddles), or a whole page; bulk accessors also draw spans of up
// to two pages.
func drawHitSpan(rng *rand.Rand, op accessOp) (Addr, int) {
	pa := framesHot[rng.Intn(len(framesHot))] * PageSize
	n := 1
	if !op.scalar {
		n = 1 + rng.Intn(2*PageSize/op.size)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(4)
		}
	}
	switch span := Addr(n * op.size); rng.Intn(5) {
	case 0: // ends exactly at the page end
		if span <= PageSize {
			return pa + PageSize - span, n
		}
	case 1: // one byte past the page end
		if span <= PageSize {
			return pa + PageSize - span + 1, n
		}
	case 2: // the whole page
		if !op.scalar {
			return pa, PageSize / op.size
		}
	}
	return pa + Addr(rng.Intn(PageSize/op.size)*op.size), n
}

// hitClass names what the hit test must turn a store away for, or ""
// when the store may hit: a span leaving its page, a pte without PermW,
// a page the space does not back, a page shared copy-on-write, or a level-2
// table shared copy-on-write.
func hitClass(s *Space, addr Addr, n int) string {
	if int(addr&pageMask)+n > PageSize {
		return "straddle"
	}
	t := s.root[addr>>l1Shift]
	e := s.entry(addr)
	switch {
	case e.perm&PermW == 0 && e.perm&PermR != 0 && e.pg != nil && e.pg.refs.Load() == 1 && t.refs.Load() == 1:
		return "read-only"
	case e.perm&PermW == 0 || e.pg == nil:
		return "unwritable or unbacked"
	case e.pg.refs.Load() > 1:
		return "shared page"
	case t.refs.Load() > 1:
		return "shared table"
	}
	return ""
}

// TestHitStoresStayPrivate runs seeded scripts of the frame-pool tests'
// steps — Snapshot and Resnap, CopyFrom both ways with whole-table shares
// among them, CopyAllFrom, MergeEx into a parent (adoptions included),
// Zero, SetPerm and Free — on pool-backed spaces, beside the same script on
// the heap with the byte oracle's stores. After each step it stores through
// every store accessor of accessOps into one space. No byte of another
// live space — a snapshot, a sibling, a parent — may move, the writer
// must match the oracle byte for byte and in its sharing graph, and
// loading the span back through the load accessor of the same element
// type must return what the oracle reads.
//
// The store classes the hit test must turn away (hitClass) each come up
// many times, and so do stores it must admit that end exactly at a page's
// end, so a hit test that skips any of its checks, or is off by one at the
// page end, fails here.
func TestHitStoresStayPrivate(t *testing.T) {
	seeds, steps := 24, 120
	if testing.Short() {
		seeds = 6
	}
	stores, loads := hitPairs()
	classes := make(map[string]int)
	adopted := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 0x417))
		f := NewFrames()
		a, b := newFramesWorld(t, f), newFramesWorld(t, nil)
		for step := 0; step < steps; step++ {
			op := drawFramesOp(rng)
			if op.kind == opMerge && op.i != op.j && a.snap[op.j] != nil {
				cfg := MergeConfig{Mode: op.mode}
				sa, ea := MergeEx(a.s[op.i], a.s[op.j], a.snap[op.j], 0, framesSpan, cfg)
				sb, eb := MergeEx(b.s[op.i], b.s[op.j], b.snap[op.j], 0, framesSpan, cfg)
				if ra, rb := fmt.Sprint(sa, ea), fmt.Sprint(sb, eb); ra != rb {
					t.Fatalf("seed %d step %d: merge returned %q, heap side %q", seed, step, ra, rb)
				}
				adopted += sa.TablesAdopted + sa.PagesAdopted
			} else if ra, rb := a.apply(op), b.apply(op); ra != rb {
				t.Fatalf("seed %d step %d op %d: pooled side returned %q, heap side %q", seed, step, op.kind, ra, rb)
			}
			for k, st := range stores {
				w := rng.Intn(framesSlots)
				addr, n := drawHitSpan(rng, st)
				span := n * st.size
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = rng.Uint64()
				}
				class := hitClass(a.s[w], addr, span)
				if class == "" && int(addr&pageMask)+span == PageSize {
					class = "hit at the page end"
				}
				classes[class]++
				what := fmt.Sprintf("seed %d step %d: %s(%#x, %d bytes) [%s] into space %d", seed, step, st.name, addr, span, class, w)

				// Everything but the writer, as it stands before the store.
				var others []*Space
				var before [][]byte
				for _, s := range a.live() {
					if s != a.s[w] {
						others = append(others, s)
						before = append(before, spanBytes(s, addr, span))
					}
				}
				_, gotErr := st.direct(a.s[w], addr, vals)
				_, wantErr := st.oracle(b.s[w], addr, vals)
				if !sameAccessError(gotErr, wantErr) {
					t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
				}
				for i, s := range others {
					if !bytes.Equal(spanBytes(s, addr, span), before[i]) {
						t.Fatalf("%s moved a byte of another live space", what)
					}
				}
				if diff := shapeDiff(a.shape(), b.shape()); diff != "" {
					t.Fatalf("%s: sharing graphs differ: %s", what, diff)
				}
				if diff := sameBytes(a, b); diff != "" {
					t.Fatalf("%s: %s differs from the oracle's", what, diff)
				}
				got, gotErr := loads[k].direct(a.s[w], addr, vals)
				want, wantErr := loads[k].oracle(b.s[w], addr, vals)
				if !sameAccessError(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: loading it back through %s: error %v, oracle %v, or the values differ", what, loads[k].name, gotErr, wantErr)
				}
			}
			if err := checkFrames(f, a.live()); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			poisonFrames(f)
		}
	}
	for _, c := range []string{"", "hit at the page end", "straddle", "read-only", "unwritable or unbacked", "shared page", "shared table"} {
		if classes[c] < 10 {
			t.Errorf("stores of class %q: %d, want at least 10 (all: %v)", c, classes[c], classes)
		}
	}
	if adopted == 0 {
		t.Error("no merge adopted a page or table")
	}
}

// spanBytes copies [addr, addr+n) of s as it stands, whatever the
// permissions, reading unbacked and unmapped pages as zeros.
func spanBytes(s *Space, addr Addr, n int) []byte {
	out := make([]byte, 0, n)
	for n > 0 {
		off := int(addr & pageMask)
		k := min(PageSize-off, n)
		out = append(out, dataOf(s.entry(addr).pg)[off:off+k]...)
		addr, n = addr+Addr(k), n-k
	}
	return out
}

// sameAccessError reports whether two accesses failed alike: both
// succeeded, or both faulted at the same address with the same perm.
func sameAccessError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var ge, we *AccessError
	return errors.As(got, &ge) && errors.As(want, &we) && *ge == *we
}

// TestHitPageEnd: a span ending exactly at the end of its page is a hit,
// one byte more is not, for loads and stores alike.
func TestHitPageEnd(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	for _, write := range []bool{false, true} {
		for _, c := range []struct {
			addr Addr
			n    int
			hit  bool
		}{
			{0, PageSize, true},
			{1, PageSize, false},
			{PageSize - 8, 8, true},
			{PageSize - 7, 8, false},
			{PageSize - 1, 1, true},
			{PageSize - 1, 2, false},
			{2*PageSize - 4, 4, true},
			{2*PageSize - 3, 4, false},
		} {
			if got := s.hit(c.addr, c.n, write) != nil; got != c.hit {
				t.Errorf("hit(%#x, %d, write %v) = %v, want %v", c.addr, c.n, write, got, c.hit)
			}
		}
	}
}
