package workload

import (
	"repro/internal/core"
	"repro/internal/vm"
)

// The matmult benchmark multiplies two n×n int32 matrices (§6.2). Each
// thread owns a stripe of result rows: it pulls the operands it needs
// into thread-local buffers (reads of the private replica), computes
// natively, and writes its stripe back — the in-place, pack-free style
// the private workspace model is designed for. Stripes are disjoint, so
// joins never conflict.

// matmulTicksPerMAC approximates one multiply-accumulate with its loads.
const matmulTicksPerMAC = 4

// MatmultInit writes deterministic operand matrices A and B at the given
// shared addresses.
func MatmultInit(rt *core.RT, n int) (a, b, c vm.Addr) {
	words := uint64(4 * n * n)
	a = rt.Alloc(words, vm.PageSize)
	b = rt.Alloc(words, vm.PageSize)
	c = rt.Alloc(words, vm.PageSize)
	rt.Env().WriteU32s(a, GenU32(n*n, 0xA))
	rt.Env().WriteU32s(b, GenU32(n*n, 0xB))
	return
}

// matmultRows computes result rows [rlo, rhi) given flat operands. Per
// row it does what baseline.Matmult's goroutine does: clear the row
// scratch, run the row kernel, charge the row, copy it out.
func matmultRows(av, bv []uint32, n, rlo, rhi int, tick func(int64)) []uint32 {
	out := make([]uint32, (rhi-rlo)*n)
	row := make([]uint32, n)
	for i := rlo; i < rhi; i++ {
		clear(row)
		matmultRow(row, av[(i-rlo)*n:(i-rlo)*n+n], bv, n)
		tick(int64(n) * int64(n) * matmulTicksPerMAC)
		copy(out[(i-rlo)*n:], row)
	}
	return out
}

// matmultRow accumulates arow·B into row, B being the n×n bv. It is its
// own function, kept out of line, for the machine code of the inner j
// loop. Inline in matmultRows, with the stripe bounds, the tick closure
// and out live around it, the loop kept rhi spilled and reloaded it from
// the stack on every multiply-accumulate, into a register overwritten
// two instructions later: eight instructions where baseline.Matmult's
// loop runs seven, and a quarter more time than the twin on one thread.
// Here only the loop's operands are live. Reslicing row to n lets the
// j < n test bound row[j] too, as the twin's make([]uint32, n) does, so
// the loop compiles to the twin's seven instructions (IMULL, ADDL to
// memory, INCQ, CMPQ, JLE, MOVL, JA) with no stack access. Merging it
// back into matmultRows, or letting it inline there, brings the reload
// back; check with `go tool objdump -s 'workload.matmultRow$'`
// (docs/perf.md).
//
//go:noinline
func matmultRow(row, arow, bv []uint32, n int) {
	row = row[:n]
	for k, aik := range arow {
		brow := bv[k*n : k*n+n]
		for j, bkj := range brow {
			row[j] += aik * bkj
		}
	}
}

// MatmultDet multiplies on threads private-workspace threads and returns
// a checksum of C.
func MatmultDet(rt *core.RT, threads, n int) uint64 {
	a, b, c := MatmultInit(rt, n)
	for t := 0; t < threads; t++ {
		t := t
		if err := rt.Fork(t, func(th *core.Thread) uint64 {
			rlo, rhi := stripe(n, threads, t)
			if rlo == rhi {
				return 0
			}
			env := th.Env()
			av := make([]uint32, (rhi-rlo)*n)
			env.ReadU32s(a+vm.Addr(4*rlo*n), av)
			bv := make([]uint32, n*n)
			env.ReadU32s(b, bv)
			out := matmultRows(av, bv, n, rlo, rhi, env.Tick)
			env.WriteU32s(c+vm.Addr(4*rlo*n), out)
			return 0
		}); err != nil {
			panic(err)
		}
	}
	for t := 0; t < threads; t++ {
		if _, err := rt.Join(t); err != nil {
			panic(err)
		}
	}
	cv := make([]uint32, n*n)
	rt.Env().ReadU32s(c, cv)
	return ChecksumU32(cv)
}

// ChecksumU32 folds a result matrix/array into a position-weighted sum so
// element transpositions are detected.
func ChecksumU32(v []uint32) uint64 {
	var sum uint64
	for i, x := range v {
		sum += uint64(x) * uint64(i+1)
	}
	return sum
}
