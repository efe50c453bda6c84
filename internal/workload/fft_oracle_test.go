package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// fftStagePerGroup is the stage body FFTDet had before it staged a
// stripe once per stage: two buffers and four Env calls per 2·half
// group the stripe crosses. It is the oracle fftStage must match in
// every accounted respect.
func fftStagePerGroup(env *kernel.Env, addr vm.Addr, half, blo, bhi int) {
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
}

// Staging a stripe once per stage is a host-only change: the result,
// virtual time, instruction count and network traffic equal the
// per-group body's at every size and thread count, on one node and two.
func TestFFTDetStagingMatchesPerGroup(t *testing.T) {
	spec, err := Lookup("fft")
	if err != nil {
		t.Fatal(err)
	}
	run := func(nodes, threads, size int, stage fftStageFunc) kernel.RunResult {
		res := core.Run(core.Options{
			Kernel:     kernel.Config{CPUsPerNode: 4, Nodes: nodes},
			SharedSize: spec.SharedBytes(size),
		}, func(rt *core.RT) uint64 { return fftDet(rt, threads, size, stage) })
		if res.Status != kernel.StatusHalted {
			t.Fatalf("stopped with %v: %v", res.Status, res.Err)
		}
		return res
	}
	for _, nodes := range []int{1, 2} {
		for _, size := range []int{1 << 9, 1 << 10, 1 << 14} {
			for _, threads := range []int{1, 2, 3, 5, 8, 12, 16} {
				t.Run(fmt.Sprintf("nodes=%d/size=%d/threads=%d", nodes, size, threads), func(t *testing.T) {
					got := run(nodes, threads, size, fftStage)
					want := run(nodes, threads, size, fftStagePerGroup)
					if got.Ret != want.Ret || got.VT != want.VT || got.Insns != want.Insns || got.Net != want.Net {
						t.Errorf("staged: ret %d vt %d insns %d net %+v; per group: ret %d vt %d insns %d net %+v",
							got.Ret, got.VT, got.Insns, got.Net, want.Ret, want.VT, want.Insns, want.Net)
					}
				})
			}
		}
	}
}
