package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/kernel"
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
	return fftDet(rt, threads, size, fftStage)
}

// fftStageFunc runs butterflies [blo, bhi) of the stage with half-size
// half on the array of complex points at addr, in the calling thread's
// space.
type fftStageFunc func(env *kernel.Env, addr vm.Addr, half, blo, bhi int)

// fftDet is FFTDet with the per-thread stage body as a parameter.
func fftDet(rt *core.RT, threads, size int, stage fftStageFunc) uint64 {
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
		blo, bhi := stripe(nb, threads, t.ID)
		stage(t.Env(), addr, 1<<phase, blo, bhi)
	}); err != nil {
		panic(err)
	}
	out := make([]float64, 2*size)
	rt.Env().ReadF64s(addr, out)
	return ChecksumF64(out)
}

// fftStage stages a thread's stripe once per stage, as the goroutine
// twin does with its one update buffer. A contiguous butterfly range
// owns, per 2·half group it crosses, two runs of elements — the i side,
// then the j side — and a run that ends where the next begins joins it,
// so a stripe of whole groups is one span and a partial group at either
// end adds at most one more. Each span is read once into one buffer,
// the butterflies run in place there, and each span is written back
// once: the same bytes, memory ticks and butterfly ticks as one read and
// write per run, in far fewer calls.
func fftStage(env *kernel.Env, addr vm.Addr, half, blo, bhi int) {
	type span struct{ e, n int } // n complex points from element e
	spans := make([]span, 0, 4)
	for b := blo; b < bhi; {
		off := b % half
		cnt := min(half-off, bhi-b)
		i0 := (b/half)*2*half + off
		for _, e := range [2]int{i0, i0 + half} {
			if k := len(spans) - 1; k >= 0 && spans[k].e+spans[k].n == e {
				spans[k].n += cnt
			} else {
				spans = append(spans, span{e, cnt})
			}
		}
		b += cnt
	}
	buf := make([]float64, 4*(bhi-blo))
	at := 0
	for _, s := range spans {
		env.ReadF64s(addr+vm.Addr(16*s.e), buf[at:at+2*s.n])
		at += 2 * s.n
	}
	at = 0
	for b := blo; b < bhi; {
		off := b % half
		cnt := min(half-off, bhi-b)
		xs, ys := buf[at:at+2*cnt], buf[at+2*cnt:at+4*cnt]
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
		at += 4 * cnt
		b += cnt
	}
	at = 0
	for _, s := range spans {
		env.WriteF64s(addr+vm.Addr(16*s.e), buf[at:at+2*s.n])
		at += 2 * s.n
	}
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
