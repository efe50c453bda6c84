package workload

import (
	"repro/internal/core"
	"repro/internal/vm"
)

// The lu benchmarks factor a dense n×n matrix into L·U by blocked
// Gaussian elimination without pivoting (the SPLASH-2 kernel, §6.2), in
// two memory layouts:
//
//   - lu_cont ("contiguous blocks"): the matrix is stored block-major,
//     so each B×B block is one contiguous run — a thread updating a
//     block touches few pages;
//   - lu_noncont ("non-contiguous"): plain row-major storage, so a block
//     is B separate row fragments scattered across pages.
//
// The layouts compute identical results; the difference is purely how
// many pages each thread's writes dirty, which is what makes the
// non-contiguous variant disproportionately expensive under
// Determinator's page-grained isolation — the gap Figure 7 shows.
//
// Every elimination step runs three phases (diagonal factor, panel
// solves, trailing update) separated by joins, making lu the most
// fine-grained benchmark in the suite.

// LUBlock is the block edge; n must be a multiple.
const LUBlock = 32

const luTicksPerFlop = 2

// luLayout abstracts the two storage orders at block granularity.
type luLayout interface {
	// readBlock loads block (bi,bj) into a B×B row-major buffer.
	readBlock(env *envIface, bi, bj int, buf []float64)
	// writeBlock stores a B×B row-major buffer into block (bi,bj).
	writeBlock(env *envIface, bi, bj int, buf []float64)
}

// envIface is the small slice of kernel.Env the layouts need, broken out
// so the sequential reference can run without a kernel underneath.
type envIface struct {
	readF64s  func(vm.Addr, []float64)
	writeF64s func(vm.Addr, []float64)
}

type contLayout struct {
	base   vm.Addr
	blocks int // blocks per row
}

func (l contLayout) blockAddr(bi, bj int) vm.Addr {
	return l.base + vm.Addr(8*LUBlock*LUBlock*(bi*l.blocks+bj))
}

func (l contLayout) readBlock(env *envIface, bi, bj int, buf []float64) {
	env.readF64s(l.blockAddr(bi, bj), buf)
}

func (l contLayout) writeBlock(env *envIface, bi, bj int, buf []float64) {
	env.writeF64s(l.blockAddr(bi, bj), buf)
}

type rowLayout struct {
	base vm.Addr
	n    int
}

func (l rowLayout) readBlock(env *envIface, bi, bj int, buf []float64) {
	for r := 0; r < LUBlock; r++ {
		addr := l.base + vm.Addr(8*((bi*LUBlock+r)*l.n+bj*LUBlock))
		env.readF64s(addr, buf[r*LUBlock:(r+1)*LUBlock])
	}
}

func (l rowLayout) writeBlock(env *envIface, bi, bj int, buf []float64) {
	for r := 0; r < LUBlock; r++ {
		addr := l.base + vm.Addr(8*((bi*LUBlock+r)*l.n+bj*LUBlock))
		env.writeF64s(addr, buf[r*LUBlock:(r+1)*LUBlock])
	}
}

// LUGen builds the deterministic, diagonally dominant input matrix.
func LUGen(n int) []float64 {
	a := GenF64(n*n, 0x10)
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

// Dense block kernels (row-major B×B buffers).

// LUFactorDiag factors a diagonal block in place (Doolittle, unit lower).
func LUFactorDiag(d []float64) {
	for k := 0; k < LUBlock; k++ {
		pivot := d[k*LUBlock+k]
		for i := k + 1; i < LUBlock; i++ {
			d[i*LUBlock+k] /= pivot
			lik := d[i*LUBlock+k]
			for j := k + 1; j < LUBlock; j++ {
				d[i*LUBlock+j] -= lik * d[k*LUBlock+j]
			}
		}
	}
}

// LUSolveRow computes U_kj: solve L_kk * X = A_kj for X, in place.
func LUSolveRow(diag, blk []float64) {
	for k := 0; k < LUBlock; k++ {
		for i := k + 1; i < LUBlock; i++ {
			lik := diag[i*LUBlock+k]
			for j := 0; j < LUBlock; j++ {
				blk[i*LUBlock+j] -= lik * blk[k*LUBlock+j]
			}
		}
	}
}

// LUSolveCol computes L_ik: solve X * U_kk = A_ik for X, in place.
func LUSolveCol(diag, blk []float64) {
	for k := 0; k < LUBlock; k++ {
		ukk := diag[k*LUBlock+k]
		for i := 0; i < LUBlock; i++ {
			blk[i*LUBlock+k] /= ukk
			lik := blk[i*LUBlock+k]
			for j := k + 1; j < LUBlock; j++ {
				blk[i*LUBlock+j] -= lik * diag[k*LUBlock+j]
			}
		}
	}
}

// LUUpdate computes A_ij -= L_ik * U_kj.
func LUUpdate(dst, l, u []float64) {
	for i := 0; i < LUBlock; i++ {
		for k := 0; k < LUBlock; k++ {
			lik := l[i*LUBlock+k]
			if lik == 0 {
				continue
			}
			for j := 0; j < LUBlock; j++ {
				dst[i*LUBlock+j] -= lik * u[k*LUBlock+j]
			}
		}
	}
}

const luBlockFlops = 2 * LUBlock * LUBlock * LUBlock

// luDet runs the blocked factorization on Determinator threads with the
// given layout.
func luDet(rt *core.RT, threads, n int, mk func(base vm.Addr) luLayout) uint64 {
	if n%LUBlock != 0 {
		panic("workload: lu size must be a multiple of the block size")
	}
	base := rt.Alloc(uint64(8*n*n), vm.PageSize)
	nb := n / LUBlock

	// Load the input in the chosen layout.
	a := LUGen(n)
	lay := mk(base)
	parentEnv := &envIface{readF64s: rt.Env().ReadF64s, writeF64s: rt.Env().WriteF64s}
	buf := make([]float64, LUBlock*LUBlock)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			for r := 0; r < LUBlock; r++ {
				copy(buf[r*LUBlock:], a[(bi*LUBlock+r)*n+bj*LUBlock:][:LUBlock])
			}
			lay.writeBlock(parentEnv, bi, bj, buf)
		}
	}

	diag := make([]float64, LUBlock*LUBlock)
	for k := 0; k < nb; k++ {
		// Phase 1 (parent): factor the diagonal block.
		lay.readBlock(parentEnv, k, k, diag)
		LUFactorDiag(diag)
		rt.Env().Tick(luBlockFlops / 3 * luTicksPerFlop)
		lay.writeBlock(parentEnv, k, k, diag)

		// Phase 2: panel solves in parallel.
		panels := make([][2]int, 0, 2*(nb-k-1))
		for j := k + 1; j < nb; j++ {
			panels = append(panels, [2]int{k, j}) // row panel U_kj
			panels = append(panels, [2]int{j, k}) // col panel L_jk
		}
		luParallelBlocks(rt, threads, panels, func(env *envIface, t *core.Thread, b [2]int) {
			blk := make([]float64, LUBlock*LUBlock)
			d := make([]float64, LUBlock*LUBlock)
			lay.readBlock(env, k, k, d)
			lay.readBlock(env, b[0], b[1], blk)
			if b[0] == k {
				LUSolveRow(d, blk)
			} else {
				LUSolveCol(d, blk)
			}
			t.Env().Tick(luBlockFlops / 2 * luTicksPerFlop)
			lay.writeBlock(env, b[0], b[1], blk)
		})

		// Phase 3: trailing submatrix update in parallel.
		var trail [][2]int
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				trail = append(trail, [2]int{i, j})
			}
		}
		luParallelBlocks(rt, threads, trail, func(env *envIface, t *core.Thread, b [2]int) {
			dst := make([]float64, LUBlock*LUBlock)
			l := make([]float64, LUBlock*LUBlock)
			u := make([]float64, LUBlock*LUBlock)
			lay.readBlock(env, b[0], b[1], dst)
			lay.readBlock(env, b[0], k, l)
			lay.readBlock(env, k, b[1], u)
			LUUpdate(dst, l, u)
			t.Env().Tick(luBlockFlops * luTicksPerFlop)
			lay.writeBlock(env, b[0], b[1], dst)
		})
	}

	// Checksum the factored matrix in row-major order, independent of
	// layout, so lu_cont and lu_noncont agree.
	out := make([]float64, n*n)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			lay.readBlock(parentEnv, bi, bj, buf)
			for r := 0; r < LUBlock; r++ {
				copy(out[(bi*LUBlock+r)*n+bj*LUBlock:], buf[r*LUBlock:(r+1)*LUBlock])
			}
		}
	}
	return ChecksumF64(out)
}

// luParallelBlocks forks up to `threads` workers, striping the block
// list, and joins them (one fork/join round per phase).
func luParallelBlocks(rt *core.RT, threads int, blocks [][2]int,
	fn func(env *envIface, t *core.Thread, b [2]int)) {
	if len(blocks) == 0 {
		return
	}
	if threads > len(blocks) {
		threads = len(blocks)
	}
	if _, err := rt.ParallelDo(threads, func(t *core.Thread) uint64 {
		env := &envIface{readF64s: t.Env().ReadF64s, writeF64s: t.Env().WriteF64s}
		lo, hi := stripe(len(blocks), threads, t.ID)
		for _, b := range blocks[lo:hi] {
			fn(env, t, b)
		}
		return 0
	}); err != nil {
		panic(err)
	}
}

// LUContDet is the contiguous-blocks variant.
func LUContDet(rt *core.RT, threads, n int) uint64 {
	return luDet(rt, threads, n, func(base vm.Addr) luLayout {
		return contLayout{base: base, blocks: n / LUBlock}
	})
}

// LUNoncontDet is the row-major (non-contiguous) variant.
func LUNoncontDet(rt *core.RT, threads, n int) uint64 {
	return luDet(rt, threads, n, func(base vm.Addr) luLayout {
		return rowLayout{base: base, n: n}
	})
}

// LUSeq is the sequential reference: identical block kernels applied in
// the same order on a plain slice.
func LUSeq(n int) uint64 {
	if n%LUBlock != 0 {
		panic("workload: lu size must be a multiple of the block size")
	}
	a := LUGen(n)
	nb := n / LUBlock
	get := func(bi, bj int, buf []float64) {
		for r := 0; r < LUBlock; r++ {
			copy(buf[r*LUBlock:], a[(bi*LUBlock+r)*n+bj*LUBlock:][:LUBlock])
		}
	}
	put := func(bi, bj int, buf []float64) {
		for r := 0; r < LUBlock; r++ {
			copy(a[(bi*LUBlock+r)*n+bj*LUBlock:][:LUBlock], buf[r*LUBlock:])
		}
	}
	d := make([]float64, LUBlock*LUBlock)
	blk := make([]float64, LUBlock*LUBlock)
	l := make([]float64, LUBlock*LUBlock)
	u := make([]float64, LUBlock*LUBlock)
	for k := 0; k < nb; k++ {
		get(k, k, d)
		LUFactorDiag(d)
		put(k, k, d)
		for j := k + 1; j < nb; j++ {
			get(k, j, blk)
			LUSolveRow(d, blk)
			put(k, j, blk)
			get(j, k, blk)
			LUSolveCol(d, blk)
			put(j, k, blk)
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				get(i, j, blk)
				get(i, k, l)
				get(k, j, u)
				LUUpdate(blk, l, u)
				put(i, j, blk)
			}
		}
	}
	return ChecksumF64(a)
}
