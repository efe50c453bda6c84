package vm

import (
	"bytes"
	"math/rand"
	"testing"
)

// perPageZero and perPageSetPerm are Zero and SetPerm as they were
// before the bulk walk: split + ownTable for every page. They are the
// reference the bulk walk must match pte for pte.
func perPageZero(s *Space, addr Addr, size uint64, perm Perm) {
	for off := uint64(0); off < size; off += PageSize {
		l1, l2 := split(addr + Addr(off))
		t := s.ownTable(l1)
		if old := t.ptes[l2].pg; old != nil {
			old.refs.Add(-1)
		}
		oracleInstall(t, l2, pte{perm: perm})
	}
}

func perPageSetPerm(s *Space, addr Addr, size uint64, perm Perm) {
	for off := uint64(0); off < size; off += PageSize {
		l1, l2 := split(addr + Addr(off))
		t := s.ownTable(l1)
		oracleInstall(t, l2, pte{pg: t.ptes[l2].pg, perm: perm})
	}
}

// TestBulkRangeOpsMatchPerPage drives two spaces through the same seeded
// history of writes, snapshots (which share every table), zeroes and
// permission changes over ranges that start and end mid-table and span
// table boundaries — one space through Zero and SetPerm, the other
// through the per-page reference — and requires the
// same permissions, backing, bitmaps and page reference counts
// throughout.
func TestBulkRangeOpsMatchPerPage(t *testing.T) {
	const span = 3 * tableEntries * PageSize // three level-2 tables
	rng := rand.New(rand.NewSource(14))
	bulk, ref := NewSpace(), NewSpace()
	for op := 0; op < 300; op++ {
		addr := Addr(rng.Intn(span/PageSize)) * PageSize
		size := uint64(1+rng.Intn(1500)) * PageSize
		if uint64(addr)+size > span {
			size = span - uint64(addr)
		}
		perm := []Perm{PermNone, PermR, PermRW}[rng.Intn(3)]
		switch rng.Intn(5) {
		case 0:
			if err := bulk.Zero(addr, size, perm); err != nil {
				t.Fatal(err)
			}
			perPageZero(ref, addr, size, perm)
		case 1:
			if err := bulk.SetPerm(addr, size, perm); err != nil {
				t.Fatal(err)
			}
			perPageSetPerm(ref, addr, size, perm)
		case 2:
			a, b := addr+Addr(rng.Intn(PageSize-3)), []byte{byte(op), byte(op >> 8), 0xee}
			if eb, er := bulk.Write(a, b), ref.Write(a, b); (eb == nil) != (er == nil) {
				t.Fatalf("op %d: write at %#x: %v, per-page side %v", op, a, eb, er)
			}
		case 3: // never freed: the tables stay shared, so ownTable has sharing to break
			bulk.Snapshot()
			ref.Snapshot()
		case 4:
			if err := bulk.SetPerm(addr, size, PermRW); err != nil {
				t.Fatal(err)
			}
			perPageSetPerm(ref, addr, size, PermRW)
		}
		for l1 := 0; l1 < 3; l1++ {
			tb, tr := bulk.root[l1], ref.root[l1]
			if (tb == nil) != (tr == nil) {
				t.Fatalf("op %d: table %d allocated on one side only", op, l1)
			}
			if tb == nil {
				continue
			}
			if tb.occ != tr.occ || tb.rd != tr.rd || tb.wr != tr.wr {
				t.Fatalf("op %d: bitmaps of table %d are occ %x rd %x wr %x, per-page walk has occ %x rd %x wr %x",
					op, l1, tb.occ, tb.rd, tb.wr, tr.occ, tr.rd, tr.wr)
			}
			for l2 := range tb.ptes {
				eb, er := tb.ptes[l2], tr.ptes[l2]
				if eb.perm != er.perm || (eb.pg == nil) != (er.pg == nil) {
					t.Fatalf("op %d: pte %d/%d is %v backed=%v, per-page walk has %v backed=%v",
						op, l1, l2, eb.perm, eb.pg != nil, er.perm, er.pg != nil)
				}
				if eb.pg != nil && eb.pg.refs.Load() != er.pg.refs.Load() {
					t.Fatalf("op %d: page %d/%d has %d refs, per-page walk %d", op, l1, l2, eb.pg.refs.Load(), er.pg.refs.Load())
				}
			}
		}
	}
}

// TestZeroRun pins the page-table query fs.Checksum stands on: the run
// covers readable pages with no backing page and nothing else.
func TestZeroRun(t *testing.T) {
	s := NewSpace()
	const base = Addr(tableEntries-4) * PageSize // the run crosses into the second table
	mustSetPerm(t, s, base, 16*PageSize, PermRW)
	if err := s.Write(base+9*PageSize+100, []byte{1}); err != nil { // backs page 9
		t.Fatal(err)
	}
	if err := s.Write(base+10*PageSize, make([]byte, PageSize)); err != nil { // backed, all zeros
		t.Fatal(err)
	}
	mustSetPerm(t, s, base+13*PageSize, PageSize, PermW) // demand-zero but unreadable
	for _, tc := range []struct {
		name  string
		addr  Addr
		limit uint64
		want  uint64
	}{
		{"up to the first backed page", base, 1 << 20, 9 * PageSize},
		{"capped by the limit", base, 5*PageSize + 7, 5*PageSize + 7},
		{"from mid-page", base + 8*PageSize + 1000, 1 << 20, PageSize - 1000},
		{"mid-page, limit inside the page", base + 100, 50, 50},
		{"at a backed page", base + 9*PageSize, 1 << 20, 0},
		{"a backed page of zeros is not a zero run", base + 10*PageSize, 1 << 20, 0},
		{"up to an unreadable page", base + 11*PageSize, 1 << 20, 2 * PageSize},
		{"at an unreadable page", base + 13*PageSize, 1 << 20, 0},
		{"up to the end of the mapping", base + 14*PageSize, 1 << 20, 2 * PageSize},
		{"unmapped page", base + 16*PageSize, 1 << 20, 0},
		{"unmapped table", 8 * tableEntries * PageSize, 1 << 20, 0},
		{"zero limit", base, 0, 0},
	} {
		if got := s.ZeroRun(tc.addr, tc.limit); got != tc.want {
			t.Errorf("%s: ZeroRun(%#x, %d) = %d, want %d", tc.name, tc.addr, tc.limit, got, tc.want)
		}
		// Whatever the run says is zero, Read agrees.
		if n := s.ZeroRun(tc.addr, tc.limit); n > 0 {
			b := bytes.Repeat([]byte{0xff}, int(n))
			if err := s.Read(tc.addr, b); err != nil || !bytes.Equal(b, make([]byte, n)) {
				t.Errorf("%s: Read of the %d-byte run: err %v, all zero %v", tc.name, n, err, err == nil)
			}
		}
	}
}
