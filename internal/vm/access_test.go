package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Oracle for the in-place access path: the byte Read and Write as they
// stood before loads and stores moved onto the cursor, kept verbatim
// (their own table walk, their own COW break), plus the typed accessors
// spelled the way they used to be — encode into a staging buffer, then
// the byte path. TestAccessMatchesByteOracle holds every accessor to
// them: same bytes, same sharing structure, same fault.

// oracleInstall is the oracles' pte write: the entry, and the bitmap bits
// that say whether it holds a page and which permissions it grants,
// spelled out by hand rather than through table.set — so the bitmaps in a
// world's shape are the oracle's own, and an install that bypasses the
// setter differs.
func oracleInstall(t *table, l2 int, e pte) {
	t.ptes[l2] = e
	w, bit := l2>>6, uint64(1)<<(uint(l2)&63)
	t.occ[w] &^= bit
	t.rd[w] &^= bit
	t.wr[w] &^= bit
	if e.pg != nil {
		t.occ[w] |= bit
	}
	if e.perm&PermR != 0 {
		t.rd[w] |= bit
	}
	if e.perm&PermW != 0 {
		t.wr[w] |= bit
	}
}

// bitmapsOf recomputes a table's three bitmaps from its ptes, slot by
// slot: the slots holding a page, granting PermR and granting PermW.
func bitmapsOf(tb *table) (occ, rd, wr bitmap) {
	for l2, e := range tb.ptes {
		w, bit := l2>>6, uint64(1)<<(uint(l2)&63)
		if e.pg != nil {
			occ[w] |= bit
		}
		if e.perm&PermR != 0 {
			rd[w] |= bit
		}
		if e.perm&PermW != 0 {
			wr[w] |= bit
		}
	}
	return occ, rd, wr
}

// checkBitmaps fails t unless every table of s holds in occ, rd and wr
// exactly what its ptes say (bitmapsOf), and no pte carries a permission
// bit outside PermRW, which no bitmap would hold.
func checkBitmaps(t *testing.T, s *Space) {
	t.Helper()
	for l1, tb := range s.root {
		if tb == nil {
			continue
		}
		occ, rd, wr := bitmapsOf(tb)
		switch {
		case tb.occ != occ:
			t.Fatalf("table %d: occupancy map %x, slots holding a page %x", l1, tb.occ, occ)
		case tb.rd != rd:
			t.Fatalf("table %d: read map %x, slots granting PermR %x", l1, tb.rd, rd)
		case tb.wr != wr:
			t.Fatalf("table %d: write map %x, slots granting PermW %x", l1, tb.wr, wr)
		}
		for l2, e := range tb.ptes {
			if e.perm&^PermRW != 0 {
				t.Fatalf("table %d slot %d: permission %v", l1, l2, e.perm)
			}
		}
	}
}

func oracleRead(s *Space, addr Addr, p []byte) error {
	curL1 := -1
	var t *table
	for len(p) > 0 {
		l1, l2 := split(addr)
		if l1 != curL1 {
			t, curL1 = s.root[l1], l1
		}
		var e pte
		if t != nil {
			e = t.ptes[l2]
		}
		if e.perm&PermR == 0 {
			return &AccessError{Addr: addr, Perm: e.perm}
		}
		off := int(addr & pageMask)
		n := min(PageSize-off, len(p))
		if e.pg == nil {
			clear(p[:n])
		} else {
			copy(p[:n], e.pg.data[off:off+n])
		}
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

func oracleWrite(s *Space, addr Addr, p []byte) error {
	curL1 := -1
	var t *table
	for len(p) > 0 {
		l1, l2 := split(addr)
		if l1 != curL1 {
			t, curL1 = s.root[l1], l1
		}
		var e pte
		if t != nil {
			e = t.ptes[l2]
		}
		if e.perm&PermW == 0 {
			return &AccessError{Addr: addr, Write: true, Perm: e.perm}
		}
		if t == nil || t.refs.Load() > 1 {
			t = s.ownTable(l1)
			e = t.ptes[l2]
		}
		off := int(addr & pageMask)
		n := min(PageSize-off, len(p))
		pg := e.pg
		if n == PageSize && (pg == nil || pg.refs.Load() > 1) {
			if pg != nil {
				pg.refs.Add(-1)
			}
			oracleInstall(t, l2, pte{pg: newPageFrom(p[:PageSize]), perm: e.perm})
		} else {
			switch {
			case pg == nil:
				pg = newPage()
				oracleInstall(t, l2, pte{pg: pg, perm: e.perm})
			case pg.refs.Load() > 1:
				np := newPage()
				np.data = pg.data
				pg.refs.Add(-1)
				pg = np
				oracleInstall(t, l2, pte{pg: pg, perm: e.perm})
			}
			copy(pg.data[off:off+n], p[:n])
		}
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

// accessOp is one accessor under test. Stores take their values from
// vals; loads return what they read (nil on a fault). direct goes through
// the accessor, oracle through encode/decode and the byte oracle.
type accessOp struct {
	name   string
	size   int  // element size in bytes
	scalar bool // exactly one element
	direct func(s *Space, addr Addr, vals []uint64) ([]uint64, error)
	oracle func(s *Space, addr Addr, vals []uint64) ([]uint64, error)
}

func oracleLoad(size int) func(*Space, Addr, []uint64) ([]uint64, error) {
	return func(s *Space, addr Addr, vals []uint64) ([]uint64, error) {
		buf := make([]byte, size*len(vals))
		if err := oracleRead(s, addr, buf); err != nil {
			return nil, err
		}
		out := make([]uint64, len(vals))
		for i := range out {
			switch size {
			case 1:
				out[i] = uint64(buf[i])
			case 4:
				out[i] = uint64(binary.LittleEndian.Uint32(buf[4*i:]))
			default:
				out[i] = binary.LittleEndian.Uint64(buf[8*i:])
			}
		}
		return out, nil
	}
}

func oracleStore(size int) func(*Space, Addr, []uint64) ([]uint64, error) {
	return func(s *Space, addr Addr, vals []uint64) ([]uint64, error) {
		buf := make([]byte, size*len(vals))
		for i, v := range vals {
			switch size {
			case 1:
				buf[i] = byte(v)
			case 4:
				binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
			default:
				binary.LittleEndian.PutUint64(buf[8*i:], v)
			}
		}
		return nil, oracleWrite(s, addr, buf)
	}
}

func u32sOf(vals []uint64) []uint32 {
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = uint32(v)
	}
	return out
}

func f64sOf(vals []uint64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64frombits(v)
	}
	return out
}

var accessOps = []accessOp{
	{"Read", 1, false, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		p := make([]byte, len(vals))
		if err := s.Read(a, p); err != nil {
			return nil, err
		}
		out := make([]uint64, len(p))
		for i, b := range p {
			out[i] = uint64(b)
		}
		return out, nil
	}, oracleLoad(1)},
	{"Write", 1, false, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		p := make([]byte, len(vals))
		for i, v := range vals {
			p[i] = byte(v)
		}
		return nil, s.Write(a, p)
	}, oracleStore(1)},
	{"ReadU32", 4, true, func(s *Space, a Addr, _ []uint64) ([]uint64, error) {
		v, err := s.ReadU32(a)
		if err != nil {
			return nil, err
		}
		return []uint64{uint64(v)}, nil
	}, oracleLoad(4)},
	{"WriteU32", 4, true, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		return nil, s.WriteU32(a, uint32(vals[0]))
	}, oracleStore(4)},
	{"ReadU64", 8, true, func(s *Space, a Addr, _ []uint64) ([]uint64, error) {
		v, err := s.ReadU64(a)
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	}, oracleLoad(8)},
	{"WriteU64", 8, true, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		return nil, s.WriteU64(a, vals[0])
	}, oracleStore(8)},
	{"ReadF64", 8, true, func(s *Space, a Addr, _ []uint64) ([]uint64, error) {
		v, err := s.ReadF64(a)
		if err != nil {
			return nil, err
		}
		return []uint64{math.Float64bits(v)}, nil
	}, oracleLoad(8)},
	{"WriteF64", 8, true, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		return nil, s.WriteF64(a, math.Float64frombits(vals[0]))
	}, oracleStore(8)},
	{"ReadU32s", 4, false, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		dst := make([]uint32, len(vals))
		if err := s.ReadU32s(a, dst); err != nil {
			return nil, err
		}
		out := make([]uint64, len(dst))
		for i, v := range dst {
			out[i] = uint64(v)
		}
		return out, nil
	}, oracleLoad(4)},
	{"WriteU32s", 4, false, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		return nil, s.WriteU32s(a, u32sOf(vals))
	}, oracleStore(4)},
	{"ReadF64s", 8, false, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		dst := make([]float64, len(vals))
		if err := s.ReadF64s(a, dst); err != nil {
			return nil, err
		}
		out := make([]uint64, len(dst))
		for i, v := range dst {
			out[i] = math.Float64bits(v)
		}
		return out, nil
	}, oracleLoad(8)},
	{"WriteF64s", 8, false, func(s *Space, a Addr, vals []uint64) ([]uint64, error) {
		return nil, s.WriteF64s(a, f64sOf(vals))
	}, oracleStore(8)},
}

// accessWorld is a space whose pages are in assorted sharing and
// permission states, plus the spaces it shares them with.
type accessWorld struct {
	s      *Space
	others []*Space // page- and table-level sharers of s
}

const (
	// accessBase puts the world's pages astride a level-1 boundary, so
	// spans cross from one level-2 table into the next.
	accessPages = 6
	accessBase  = Addr(tableEntries*PageSize - 3*PageSize)
)

// buildAccessWorld draws one world from rng. Two calls with equally seeded
// generators build structurally identical worlds that share nothing.
func buildAccessWorld(t *testing.T, rng *rand.Rand) *accessWorld {
	t.Helper()
	w := &accessWorld{s: NewSpace()}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var sharedPages []Addr
	for i := 0; i < accessPages; i++ {
		pa := accessBase + Addr(i*PageSize)
		fill := func() {
			must(w.s.SetPerm(pa, PageSize, PermRW))
			must(oracleWrite(w.s, pa+Addr(rng.Intn(64)), randBytes(rng, PageSize-64)))
		}
		switch rng.Intn(8) {
		case 0: // unmapped
		case 1: // mapped, backed, no access
			fill()
			must(w.s.SetPerm(pa, PageSize, PermNone))
		case 2: // read-only
			fill()
			must(w.s.SetPerm(pa, PageSize, PermR))
		case 3: // lazy-zero
			must(w.s.SetPerm(pa, PageSize, PermRW))
		case 4: // shared page by page with another space
			fill()
			sharedPages = append(sharedPages, pa)
		default: // exclusively owned, read-write
			fill()
		}
	}
	if len(sharedPages) > 0 {
		o := NewSpace()
		for _, pa := range sharedPages {
			_, err := o.CopyFrom(w.s, pa, pa, PageSize)
			must(err)
		}
		w.others = append(w.others, o)
	}
	if k := rng.Intn(3); k > 0 { // whole tables shared with a snapshot
		snap, _ := w.s.Snapshot()
		w.others = append(w.others, snap)
		if k == 2 { // tables private again, so it is the pages the snapshot shares
			w.s.ownTable(0)
			w.s.ownTable(1)
		}
	}
	return w
}

// shape describes everything about a world an access may legitimately
// change and everything it must not: per-page permission, bytes and page
// refcount for every space, table refcounts, bitmap words and
// footprint.
func (w *accessWorld) shape() string {
	all := append([]*Space{w.s}, w.others...)
	out := fmt.Sprintf("footprint %d\n", Footprint(all))
	for si, s := range all {
		for i := -1; i <= accessPages; i++ {
			pa := accessBase + Addr(i*PageSize)
			e := s.entry(pa)
			refs := int32(0)
			if e.pg != nil {
				refs = e.pg.refs.Load()
			}
			out += fmt.Sprintf("space %d page %#x perm %s refs %d sum %x\n",
				si, pa, e.perm, refs, fingerprint(s, pa, PageSize))
		}
		for l1 := 0; l1 < 3; l1++ {
			var refs int32
			var occ, rd, wr bitmap
			if tb := s.root[l1]; tb != nil {
				refs, occ, rd, wr = tb.refs.Load(), tb.occ, tb.rd, tb.wr
			}
			out += fmt.Sprintf("space %d table %d refs %d occ %x rd %x wr %x\n", si, l1, refs, occ, rd, wr)
		}
	}
	return out
}

func TestAccessMatchesByteOracle(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for _, op := range accessOps {
		t.Run(op.name, func(t *testing.T) {
			for it := 0; it < iters; it++ {
				seed := int64(it)*7919 + int64(len(op.name))
				a := buildAccessWorld(t, rand.New(rand.NewSource(seed)))
				b := buildAccessWorld(t, rand.New(rand.NewSource(seed)))
				if as, bs := a.shape(), b.shape(); as != bs {
					t.Fatalf("seed %d: worlds differ before the access:\n%s\nvs\n%s", seed, as, bs)
				}

				rng := rand.New(rand.NewSource(seed ^ 0x5eed))
				n := 1
				if !op.scalar {
					n = rng.Intn(3*PageSize/op.size + 1) // 0 to 3 pages of elements
				}
				addr := accessBase + Addr(rng.Intn(accessPages-3)*PageSize)
				switch rng.Intn(3) {
				case 0: // aligned
					addr += Addr(rng.Intn(PageSize/op.size) * op.size)
				case 1: // anywhere
					addr += Addr(rng.Intn(PageSize))
				case 2: // the first element straddles the page boundary
					addr += PageSize - Addr(1+rng.Intn(op.size))
				}
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = rng.Uint64()
				}

				got, gotErr := op.direct(a.s, addr, vals)
				want, wantErr := op.oracle(b.s, addr, vals)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: %s(%#x, %d): loaded values differ from the oracle's", seed, op.name, addr, n)
				}
				var ge, we *AccessError
				if (gotErr == nil) != (wantErr == nil) ||
					(gotErr != nil && (!errors.As(gotErr, &ge) || !errors.As(wantErr, &we) || *ge != *we)) {
					t.Fatalf("seed %d: %s(%#x, %d): error %v, oracle %v", seed, op.name, addr, n, gotErr, wantErr)
				}
				if as, bs := a.shape(), b.shape(); as != bs {
					t.Fatalf("seed %d: %s(%#x, %d) (err %v): state differs from the oracle's:\n%s\nvs\n%s",
						seed, op.name, addr, n, gotErr, as, bs)
				}
			}
		})
	}
}

// TestAccessAllocatesNothing: on already-private pages no accessor
// allocates, whether its span is aligned or starts 3 bytes below a page
// boundary, so that an element straddles it.
func TestAccessAllocatesNothing(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, 4*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, make([]byte, 4*PageSize)); err != nil {
		t.Fatal(err)
	}
	u32s := make([]uint32, 600)
	f64s := make([]float64, 600)
	for _, addr := range []Addr{0, PageSize - 3} {
		for _, c := range []struct {
			name string
			fn   func() error
		}{
			{"ReadU32", func() error { _, err := s.ReadU32(addr); return err }},
			{"WriteU32", func() error { return s.WriteU32(addr, 7) }},
			{"ReadU64", func() error { _, err := s.ReadU64(addr); return err }},
			{"WriteU64", func() error { return s.WriteU64(addr, 7) }},
			{"ReadF64", func() error { _, err := s.ReadF64(addr); return err }},
			{"WriteF64", func() error { return s.WriteF64(addr, 7) }},
			{"ReadU32s", func() error { return s.ReadU32s(addr, u32s) }},
			{"WriteU32s", func() error { return s.WriteU32s(addr, u32s) }},
			{"ReadF64s", func() error { return s.ReadF64s(addr, f64s) }},
			{"WriteF64s", func() error { return s.WriteF64s(addr, f64s) }},
		} {
			var err error
			if n := testing.AllocsPerRun(20, func() { err = c.fn() }); n != 0 || err != nil {
				t.Errorf("%s at %#x: %v allocs/op (err %v), want 0", c.name, addr, n, err)
			}
		}
	}
}

// TestAccessDoesNotWrap: a span that runs past the top of the address
// space is refused whole with a *SpanError — nothing lands at address 0,
// nothing lands below the top either — while a span ending exactly at the
// top is an ordinary access.
func TestAccessDoesNotWrap(t *testing.T) {
	const top = Addr(SpaceSize - PageSize)
	s := NewSpace()
	for _, pa := range []Addr{0, top} {
		if err := s.SetPerm(pa, PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i + 1)
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"Write", s.Write(0xFFFF_FFF0, data)},
		{"Read", s.Read(0xFFFF_FFF0, make([]byte, 32))},
		{"WriteU32", s.WriteU32(0xFFFF_FFFE, 1)},
		{"WriteF64s", s.WriteF64s(0xFFFF_FFF8, []float64{1, 2})},
		{"ReadU32s", s.ReadU32s(0xFFFF_FFFC, make([]uint32, 2))},
	} {
		var se *SpanError
		if !errors.As(c.err, &se) {
			t.Errorf("%s across the top of the address space: error %v, want *SpanError", c.name, c.err)
		}
	}
	if _, err := s.ReadU64(0xFFFF_FFFC); err == nil {
		t.Error("ReadU64 across the top of the address space succeeded")
	}
	if s.entry(0).pg != nil || s.entry(top).pg != nil {
		t.Error("a refused span still touched memory")
	}
	if n := s.ZeroRun(top, 2*PageSize); n != PageSize {
		t.Errorf("ZeroRun across the top = %d, want %d", n, PageSize)
	}

	if err := s.Write(0xFFFF_FFF0, data[:16]); err != nil {
		t.Fatalf("Write ending at the top of the address space: %v", err)
	}
	if err := s.WriteF64s(0xFFFF_FFE0, []float64{1, 2}); err != nil {
		t.Fatalf("WriteF64s below the top: %v", err)
	}
	got := make([]byte, 16)
	if err := s.Read(0xFFFF_FFF0, got); err != nil || string(got) != string(data[:16]) {
		t.Errorf("Read ending at the top = %x, %v", got, err)
	}
	if s.entry(0).pg != nil {
		t.Error("an access ending at the top touched address 0")
	}
}
