// Package baseline implements the comparison systems of the paper's
// evaluation: the nondeterministic shared-memory versions of every
// benchmark ("pthreads on Linux", §6.2) as plain goroutines over shared
// slices, and distributed-memory message-passing equivalents of the
// cluster benchmarks (§6.3, Figure 12).
//
// The baselines compute byte-identical results to the Determinator
// versions in package workload — same generators, same kernels, same
// operation order per element — so the test suite can cross-check all
// three worlds (sequential, deterministic, nondeterministic).
package baseline

import (
	"sync"

	"repro/internal/workload"
)

// MD5 is the shared-memory nondeterministic search.
func MD5(threads, size int) uint64 {
	want := workload.MD5Candidate(workload.MD5Target(size))
	results := make([]uint64, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := stripe(size, threads, t)
			for v := uint64(lo); v < uint64(hi); v++ {
				if workload.MD5Candidate(v) == want {
					results[t] = v + 1
				}
			}
		}()
	}
	wg.Wait()
	var found uint64
	for _, v := range results {
		if v != 0 {
			found = v - 1
		}
	}
	return found
}

// Matmult is the shared-memory multiply: goroutines write disjoint
// stripes of C in place.
func Matmult(threads, n int) uint64 {
	a := workload.GenU32(n*n, 0xA)
	b := workload.GenU32(n*n, 0xB)
	c := make([]uint32, n*n)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			rlo, rhi := stripe(n, threads, t)
			row := make([]uint32, n)
			for i := rlo; i < rhi; i++ {
				clear(row)
				for k := 0; k < n; k++ {
					aik := a[i*n+k]
					brow := b[k*n : k*n+n]
					for j, bkj := range brow {
						row[j] += aik * bkj
					}
				}
				copy(c[i*n:], row)
			}
		}()
	}
	wg.Wait()
	return workload.ChecksumU32(c)
}

// Qsort is the shared-memory recursive parallel quicksort.
func Qsort(threads, size int) uint64 {
	a := workload.GenU32(size, 0x50F7)
	depth := 0
	for 1<<depth < threads {
		depth++
	}
	qsortPar(a, depth)
	return workload.ChecksumU32(a)
}

func qsortPar(a []uint32, depth int) {
	if len(a) < 64 || depth == 0 {
		workload.QsortSeq(a)
		return
	}
	p := workload.QsortPartition(a)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); qsortPar(a[:p], depth-1) }()
	go func() { defer wg.Done(); qsortPar(a[p+1:], depth-1) }()
	wg.Wait()
}

// Blackscholes is the shared-memory portfolio pricing.
func Blackscholes(threads, size int) uint64 {
	opts := workload.GenOptions(size)
	prices := make([]float64, size)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := stripe(size, threads, t)
			for i := lo; i < hi; i++ {
				prices[i] = workload.Price(opts[i])
			}
		}()
	}
	wg.Wait()
	return workload.ChecksumF64(prices)
}

// FFT is the shared-memory transform with a WaitGroup barrier per stage.
func FFT(threads, size int) uint64 {
	data := workload.FFTInput(size)
	nb := size / 2
	for half := 1; half < size; half *= 2 {
		updates := make([][]float64, threads)
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			t := t
			wg.Add(1)
			go func() {
				defer wg.Done()
				blo, bhi := stripe(nb, threads, t)
				updates[t] = workload.FFTButterflies(data, half, blo, bhi)
			}()
		}
		wg.Wait()
		for t := 0; t < threads; t++ {
			blo, bhi := stripe(nb, threads, t)
			workload.FFTApplyRef(data, half, blo, bhi, updates[t])
		}
	}
	return workload.ChecksumF64(data)
}

// LU is the shared-memory blocked factorization: same block kernels and
// elimination order as the Determinator versions, barriers via
// WaitGroups. The layout distinction matters little without page-grained
// isolation, so one implementation serves as the baseline for both
// lu_cont and lu_noncont, as the Linux pthreads baselines effectively do
// in the paper.
func LU(threads, n int) uint64 {
	const bs = workload.LUBlock
	if n%bs != 0 {
		panic("baseline: lu size must be a multiple of the block size")
	}
	a := workload.LUGen(n)
	nb := n / bs
	get := func(bi, bj int, buf []float64) {
		for r := 0; r < bs; r++ {
			copy(buf[r*bs:], a[(bi*bs+r)*n+bj*bs:][:bs])
		}
	}
	put := func(bi, bj int, buf []float64) {
		for r := 0; r < bs; r++ {
			copy(a[(bi*bs+r)*n+bj*bs:][:bs], buf[r*bs:])
		}
	}
	parallel := func(blocks [][2]int, fn func(b [2]int)) {
		if len(blocks) == 0 {
			return
		}
		w := threads
		if w > len(blocks) {
			w = len(blocks)
		}
		var wg sync.WaitGroup
		for t := 0; t < w; t++ {
			t := t
			wg.Add(1)
			go func() {
				defer wg.Done()
				lo, hi := stripe(len(blocks), w, t)
				for _, b := range blocks[lo:hi] {
					fn(b)
				}
			}()
		}
		wg.Wait()
	}
	diag := make([]float64, bs*bs)
	for k := 0; k < nb; k++ {
		get(k, k, diag)
		workload.LUFactorDiag(diag)
		put(k, k, diag)

		panels := make([][2]int, 0, 2*(nb-k-1))
		for j := k + 1; j < nb; j++ {
			panels = append(panels, [2]int{k, j}, [2]int{j, k})
		}
		k := k
		parallel(panels, func(b [2]int) {
			blk := make([]float64, bs*bs)
			d := make([]float64, bs*bs)
			get(k, k, d)
			get(b[0], b[1], blk)
			if b[0] == k {
				workload.LUSolveRow(d, blk)
			} else {
				workload.LUSolveCol(d, blk)
			}
			put(b[0], b[1], blk)
		})

		var trail [][2]int
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				trail = append(trail, [2]int{i, j})
			}
		}
		parallel(trail, func(b [2]int) {
			dst := make([]float64, bs*bs)
			l := make([]float64, bs*bs)
			u := make([]float64, bs*bs)
			get(b[0], b[1], dst)
			get(b[0], k, l)
			get(k, b[1], u)
			workload.LUUpdate(dst, l, u)
			put(b[0], b[1], dst)
		})
	}
	return workload.ChecksumF64(a)
}

// Baselines returns the baseline entry points in Figure 7 order, aligned
// with workload.Specs().
func Baselines() map[string]func(threads, size int) uint64 {
	return map[string]func(threads, size int) uint64{
		"md5":          MD5,
		"matmult":      Matmult,
		"qsort":        Qsort,
		"blackscholes": Blackscholes,
		"fft":          FFT,
		"lu_cont":      LU,
		"lu_noncont":   LU,
	}
}

func stripe(total, nth, id int) (lo, hi int) {
	return id * total / nth, (id + 1) * total / nth
}
