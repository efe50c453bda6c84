package workload

import (
	"fmt"
	"slices"
	"testing"
)

// matmultRowsInline is the body matmultRows had before its k/j loops
// moved into matmultRow: the same arithmetic with the row kernel inline.
// It is the oracle matmultRows must match in output and in ticks.
func matmultRowsInline(av, bv []uint32, n, rlo, rhi int, tick func(int64)) []uint32 {
	out := make([]uint32, (rhi-rlo)*n)
	row := make([]uint32, n)
	for i := rlo; i < rhi; i++ {
		clear(row)
		for k := 0; k < n; k++ {
			aik := av[(i-rlo)*n+k]
			brow := bv[k*n : k*n+n]
			for j, bkj := range brow {
				row[j] += aik * bkj
			}
		}
		tick(int64(n) * int64(n) * matmulTicksPerMAC)
		copy(out[(i-rlo)*n:], row)
	}
	return out
}

// Moving the row kernel out of line is a host-only change: for every
// size and stripe (empty, one row, partial, whole) the result words and
// the sequence of tick amounts equal the inline body's.
func TestMatmultRowsMatchInlineKernel(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 256} {
		stripes := [][2]int{{0, 0}, {n / 2, n / 2}, {0, 1}, {n - 1, n}, {n / 3, n - n/3}, {0, n}}
		for _, seed := range []uint64{0xA, 0x5EED, 0xC0FFEE} {
			b := GenU32(n*n, seed^0xB)
			for _, s := range stripes {
				rlo, rhi := s[0], s[1]
				a := GenU32((rhi-rlo)*n, seed)
				var want, got []int64
				exp := matmultRowsInline(a, b, n, rlo, rhi, func(d int64) { want = append(want, d) })
				out := matmultRows(a, b, n, rlo, rhi, func(d int64) { got = append(got, d) })
				name := fmt.Sprintf("n=%d seed=%#x rows=[%d,%d)", n, seed, rlo, rhi)
				if !slices.Equal(out, exp) {
					t.Errorf("%s: result words differ from the inline kernel's", name)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: ticks %v, inline kernel %v", name, got, want)
				}
			}
		}
	}
}
