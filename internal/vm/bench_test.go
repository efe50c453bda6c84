package vm

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the primitives every higher layer's cost reduces
// to: bulk COW copies, snapshots, and merges with varying dirtiness.

func benchSpace(pages int) *Space {
	s := NewSpace()
	span := uint64((pages + tableEntries - 1) / tableEntries * tableEntries * PageSize)
	if span == 0 {
		span = tableEntries * PageSize
	}
	if err := s.SetPerm(0, span, PermRW); err != nil {
		panic(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for p := 0; p < pages; p++ {
		if err := s.Write(Addr(p*PageSize), buf); err != nil {
			panic(err)
		}
	}
	return s
}

func BenchmarkCopyAllFrom(b *testing.B) {
	for _, pages := range []int{16, 1024, 8192} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			src := benchSpace(pages)
			dst := NewSpace()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.CopyAllFrom(src)
			}
		})
	}
}

func BenchmarkSnapshot(b *testing.B) {
	src := benchSpace(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _ := src.Snapshot()
		snap.Free()
	}
}

// BenchmarkForkDirtyMerge times the full private-workspace cycle — COW
// fork, snapshot, dirtying N pages, merge back — which is the unit of
// cost behind every thread join in the system. (Timing only the merge
// would need per-iteration untimed setup that dwarfs the measured work.)
func BenchmarkForkDirtyMerge(b *testing.B) {
	for _, dirty := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			parent := benchSpace(1024)
			buf := make([]byte, PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				child := NewSpace()
				child.CopyAllFrom(parent)
				snap, _ := child.Snapshot()
				for p := 0; p < dirty; p++ {
					if err := child.Write(Addr(p*PageSize), buf); err != nil {
						b.Fatal(err)
					}
				}
				dst := NewSpace()
				dst.CopyAllFrom(parent)
				if _, err := Merge(dst, child, snap, 0, tableEntries*PageSize); err != nil {
					b.Fatal(err)
				}
				child.Free()
				snap.Free()
				dst.Free()
			}
		})
	}
}

func BenchmarkWriteCOWBreak(b *testing.B) {
	src := benchSpace(64)
	var word [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewSpace()
		dst.CopyAllFrom(src)
		// First write to a shared page: table split + page copy.
		if err := dst.Write(0, word[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkReadWrite(b *testing.B) {
	s := benchSpace(256)
	buf := make([]byte, 256*PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(0, buf); err != nil {
			b.Fatal(err)
		}
		if err := s.Write(0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(2 * len(buf)))
}

// Page-spanning bulk access benchmarks for the single-walk Read/Write
// path: one cursor walk per page instead of an entry() permission lookup
// followed by a second split/ownTable walk inside writablePage. The
// "cowbreak" variant re-shares the pages each iteration so every
// full-page store exercises the fresh-page install path (no read-copy);
// "owned" writes through already-private pages, the steady-state loop.

// benchSpanPages is sized to cross a level-1 table boundary so the walk
// exercises the table-cursor reload, not just one cached table.
const benchSpanPages = tableEntries + 64

func BenchmarkPageSpanWrite(b *testing.B) {
	buf := make([]byte, benchSpanPages*PageSize)
	for i := range buf {
		buf[i] = byte(i >> 4)
	}
	b.Run("owned", func(b *testing.B) {
		s := benchSpace(benchSpanPages)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Write(0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cowbreak", func(b *testing.B) {
		src := benchSpace(benchSpanPages)
		s := NewSpace()
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.CopyAllFrom(src) // restore sharing: every page write must COW
			b.StartTimer()
			if err := s.Write(0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unaligned", func(b *testing.B) {
		// Offset by half a page: every store is partial, so the walk cost
		// is the same but the fresh-install fast path never applies.
		s := benchSpace(benchSpanPages)
		p := buf[:len(buf)-PageSize]
		b.SetBytes(int64(len(p)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Write(PageSize/2, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPageSpanRead(b *testing.B) {
	s := benchSpace(benchSpanPages)
	buf := make([]byte, benchSpanPages*PageSize)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypedAccess times the bulk float64 and uint32 accessors at the
// span lengths the fine-grained workloads use — an FFT butterfly's 2, a
// short run's 8, a matrix row's 64, a whole block of pages. On
// already-private pages, aligned and with the span starting half an
// element below a page boundary so an element straddles it, a load or a
// store within one page is the hit test's; "readonly" loads pages mapped
// PermR only. "cow" stores into a pool-backed space whose snapshot is
// re-taken before every store, so each one walks, copies the level-2
// table and breaks copy-on-write on every page it touches, with the
// frames coming back to the pool at the next re-snapshot. The words move
// in place, never through a staging buffer, so a variant that allocates
// fails (`make bench-smoke` runs them all).
func BenchmarkTypedAccess(b *testing.B) {
	benchTypedAccess(b, "f64", 8, (*Space).ReadF64s, (*Space).WriteF64s)
	benchTypedAccess(b, "u32", 4, (*Space).ReadU32s, (*Space).WriteU32s)
}

func benchTypedAccess[T word](b *testing.B, typ string, size int, read, write func(*Space, Addr, []T) error) {
	const roAddr = 32 * PageSize // eight backed pages, mapped PermR
	s := benchSpace(16)
	if err := s.Write(roAddr, make([]byte, 8*PageSize)); err != nil {
		b.Fatal(err)
	}
	if err := s.SetPerm(roAddr, 8*PageSize, PermR); err != nil {
		b.Fatal(err)
	}
	cow := NewFrames().NewSpace()
	if err := cow.SetPerm(0, tableEntries*PageSize, PermRW); err != nil {
		b.Fatal(err)
	}
	if err := cow.Write(0, make([]byte, 16*PageSize)); err != nil {
		b.Fatal(err)
	}
	var snap *Space
	load := func(a Addr, v []T) error { return read(s, a, v) }
	store := func(a Addr, v []T) error { return write(s, a, v) }
	cowStore := func(a Addr, v []T) error {
		snap, _ = cow.Resnap(snap)
		return write(cow, a, v)
	}
	for _, n := range []int{2, 8, 64, 4096} {
		vals := make([]T, n)
		for _, c := range []struct {
			op, at string
			fn     func(Addr, []T) error
			addr   Addr
		}{
			{"read", "aligned", load, PageSize},
			{"write", "aligned", store, PageSize},
			{"read", "straddle", load, PageSize - Addr(size/2)},
			{"write", "straddle", store, PageSize - Addr(size/2)},
			{"read", "readonly", load, roAddr},
			{"write", "cow", cowStore, PageSize},
		} {
			b.Run(fmt.Sprintf("%s/%s/%s/%d", typ, c.op, c.at, n), func(b *testing.B) {
				if a := testing.AllocsPerRun(10, func() { c.fn(c.addr, vals) }); a != 0 {
					b.Fatalf("%v allocs/op, want 0", a)
				}
				b.ReportAllocs()
				b.SetBytes(int64(size * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.fn(c.addr, vals); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMergeKernels times the page-compare slow path under the word
// kernel and under its per-byte oracle (merge_kernel_test.go) on the same
// page triples: every page of a 4 MiB table changed by the child and
// touched by the parent, so none can be adopted. "sparse" pages differ in
// one 1 KiB span, "full" pages in every byte. Last-writer-wins mode keeps
// each iteration's work identical (the destination already holding the
// child's bytes would be a strict-mode conflict on the second pass). The
// ratio between the two is the kern-x figure detbench's merge table used
// to report.
func BenchmarkMergeKernels(b *testing.B) {
	for _, shape := range []struct {
		name string
		span int // bytes per page the child changes
	}{{"sparse", 1024}, {"full", PageSize}} {
		parent := benchSpace(tableEntries)
		cur := NewSpace()
		cur.CopyAllFrom(parent)
		ref, _ := cur.Snapshot()
		dst := NewSpace()
		dst.CopyAllFrom(parent)
		inv := make([]byte, shape.span)
		for i := range inv {
			inv[i] = ^byte(i)
		}
		for p := 0; p < tableEntries; p++ {
			if err := cur.Write(Addr(p*PageSize), inv); err != nil {
				b.Fatal(err)
			}
			if err := dst.Write(Addr(p*PageSize)+PageSize-1, []byte{0xa5}); err != nil {
				b.Fatal(err)
			}
		}
		for _, k := range []struct {
			name   string
			kernel pageKernel
		}{{"words", mergePageWords}, {"bytes", mergePageBytes}} {
			b.Run(shape.name+"/"+k.name, func(b *testing.B) {
				var st MergeStats
				var conflict MergeConflictError
				c := mergeCtx{mode: MergeLastWriter, st: &st, conflict: &conflict}
				dc := cursor{s: dst, l1: 0}
				b.SetBytes(tableEntries * PageSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for l2 := 0; l2 < tableEntries; l2++ {
						pa := Addr(l2 * PageSize)
						k.kernel(&dc, pa, l2, cur.entry(pa), ref.entry(pa), dc.entry(l2), c)
					}
				}
			})
		}
		parent.Free()
		cur.Free()
		ref.Free()
		dst.Free()
	}
}
