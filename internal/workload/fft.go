package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/vm"
)

// The fft benchmark is an iterative radix-2 complex FFT (after the
// SPLASH-2 kernel, §6.2): a barrier between every butterfly stage. Each
// stage's butterflies are disjoint element pairs, partitioned across
// threads, so the per-stage merges are conflict-free; but because every
// stage synchronizes over the whole array, the benchmark is
// fine-grained, and the per-stage copy/merge cost is exactly what makes
// Determinator slower here — the effect Figure 7 shows.

const fftTicksPerButterfly = 24

// fftBitReverse permutes data (interleaved re/im) in place.
func fftBitReverse(data []float64) {
	n := len(data) / 2
	j := 0
	for i := 0; i < n-1; i++ {
		if i < j {
			data[2*i], data[2*j] = data[2*j], data[2*i]
			data[2*i+1], data[2*j+1] = data[2*j+1], data[2*i+1]
		}
		m := n >> 1
		for j >= m && m > 0 {
			j -= m
			m >>= 1
		}
		j += m
	}
}

// FFTButterflies executes butterflies [blo, bhi) of the stage with
// half-size half, reading pairs from src and returning the updated pair
// values as (index, re, im) triples flattened into updates.
func FFTButterflies(src []float64, half, blo, bhi int) []float64 {
	// Each butterfly b works on indices i = (b/half)*2*half + b%half
	// and j = i + half.
	updates := make([]float64, 0, 4*(bhi-blo))
	for b := blo; b < bhi; b++ {
		i := (b/half)*2*half + b%half
		j := i + half
		ang := -math.Pi * float64(b%half) / float64(half)
		wr, wi := math.Cos(ang), math.Sin(ang)
		xr, xi := src[2*i], src[2*i+1]
		yr, yi := src[2*j], src[2*j+1]
		tr := yr*wr - yi*wi
		ti := yr*wi + yi*wr
		updates = append(updates, xr+tr, xi+ti, xr-tr, xi-ti)
	}
	return updates
}

// FFTDet transforms size complex points on threads threads with a
// barrier per stage, returning a bit-level checksum of the spectrum.
func FFTDet(rt *core.RT, threads, size int) uint64 {
	if size&(size-1) != 0 {
		panic("workload: fft size must be a power of two")
	}
	data := GenF64(2*size, 0xFF7)
	fftBitReverse(data)
	addr := rt.Alloc(uint64(16*size), vm.PageSize)
	rt.Env().WriteF64s(addr, data)

	stages := 0
	for 1<<stages < size {
		stages++
	}
	nb := size / 2 // butterflies per stage
	if err := rt.RunPhases(threads, stages, func(t *core.Thread, phase int) {
		half := 1 << phase
		blo, bhi := stripe(nb, threads, t.ID)
		env := t.Env()
		// A contiguous butterfly range touches, per 2·half group it
		// crosses, two contiguous element runs (the i side and the j
		// side), so each thread bulk-reads and bulk-writes exactly the
		// data it owns — no whole-array traffic.
		for b := blo; b < bhi; {
			g, off := b/half, b%half
			cnt := half - off
			if b+cnt > bhi {
				cnt = bhi - b
			}
			i0 := g*2*half + off
			j0 := i0 + half
			xs := make([]float64, 2*cnt)
			ys := make([]float64, 2*cnt)
			env.ReadF64s(addr+vm.Addr(16*i0), xs)
			env.ReadF64s(addr+vm.Addr(16*j0), ys)
			for k := 0; k < cnt; k++ {
				ang := -math.Pi * float64(off+k) / float64(half)
				wr, wi := math.Cos(ang), math.Sin(ang)
				xr, xi := xs[2*k], xs[2*k+1]
				yr, yi := ys[2*k], ys[2*k+1]
				tr := yr*wr - yi*wi
				ti := yr*wi + yi*wr
				xs[2*k], xs[2*k+1] = xr+tr, xi+ti
				ys[2*k], ys[2*k+1] = xr-tr, xi-ti
			}
			env.Tick(int64(cnt) * fftTicksPerButterfly)
			env.WriteF64s(addr+vm.Addr(16*i0), xs)
			env.WriteF64s(addr+vm.Addr(16*j0), ys)
			b += cnt
		}
	}); err != nil {
		panic(err)
	}
	out := make([]float64, 2*size)
	rt.Env().ReadF64s(addr, out)
	return ChecksumF64(out)
}

// FFTSeq is the sequential reference, structured to execute the exact
// same floating-point operations in the same order per element.
func FFTSeq(size int) uint64 {
	data := GenF64(2*size, 0xFF7)
	fftBitReverse(data)
	nb := size / 2
	for half := 1; half < size; half *= 2 {
		updates := FFTButterflies(data, half, 0, nb)
		for k, b := 0, 0; b < nb; k, b = k+4, b+1 {
			i := (b/half)*2*half + b%half
			j := i + half
			data[2*i], data[2*i+1] = updates[k], updates[k+1]
			data[2*j], data[2*j+1] = updates[k+2], updates[k+3]
		}
	}
	return ChecksumF64(data)
}
