package workload

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// detRun executes a Det-style entry point on a fresh machine.
func detRun(t *testing.T, shared uint64, nodes int, f func(rt *core.RT) uint64) uint64 {
	t.Helper()
	res := core.Run(core.Options{
		Kernel:     kernel.Config{CPUsPerNode: 4, Nodes: nodes},
		SharedSize: shared,
	}, f)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("det run stopped with %v: %v", res.Status, res.Err)
	}
	return res.Ret
}

func TestMD5DetMatchesSequential(t *testing.T) {
	const size = 4096
	want := MD5Seq(size)
	if want != MD5Target(size) {
		t.Fatalf("sequential search broken: found %d, planted %d", want, MD5Target(size))
	}
	for _, threads := range []int{1, 2, 4, 7} {
		got := detRun(t, 1<<20, 1, func(rt *core.RT) uint64 {
			return MD5Det(rt, threads, size)
		})
		if got != want {
			t.Errorf("threads=%d: MD5Det = %d, want %d", threads, got, want)
		}
	}
}

func TestMatmultDetMatchesSequential(t *testing.T) {
	for _, n := range []int{16, 64} {
		want := MatmultSeq(n)
		for _, threads := range []int{1, 3, 4} {
			got := detRun(t, uint64(3*4*n*n)+(8<<20), 1, func(rt *core.RT) uint64 {
				return MatmultDet(rt, threads, n)
			})
			if got != want {
				t.Errorf("n=%d threads=%d: MatmultDet = %d, want %d", n, threads, got, want)
			}
		}
	}
}

func TestQsortDetSortsCorrectly(t *testing.T) {
	const size = 5000
	want := QsortSeqFull(size)
	// Cross-check the reference against the stdlib.
	ref := GenU32(size, 0x50F7)
	std := append([]uint32(nil), ref...)
	sort.Slice(std, func(i, j int) bool { return std[i] < std[j] })
	QsortSeq(ref)
	for i := range ref {
		if ref[i] != std[i] {
			t.Fatalf("reference quicksort wrong at %d", i)
		}
	}
	for _, threads := range []int{1, 2, 4} {
		got := detRun(t, uint64(4*size)+(8<<20), 1, func(rt *core.RT) uint64 {
			return QsortDet(rt, threads, size)
		})
		if got != want {
			t.Errorf("threads=%d: QsortDet = %d, want %d", threads, got, want)
		}
	}
}

func TestBlackscholesVariantsAgree(t *testing.T) {
	const size = 2000
	want := BlackscholesSeq(size)
	gotNative := detRun(t, (16 << 20), 1, func(rt *core.RT) uint64 {
		return BlackscholesDet(rt, 3, size)
	})
	if gotNative != want {
		t.Errorf("BlackscholesDet = %d, want %d", gotNative, want)
	}
	gotDsched := detRun(t, (16 << 20), 1, func(rt *core.RT) uint64 {
		return BlackscholesQuantum(rt, 3, size, 50_000)
	})
	if gotDsched != want {
		t.Errorf("BlackscholesQuantum = %d, want %d", gotDsched, want)
	}
}

func TestBlackscholesPriceSanity(t *testing.T) {
	// A deep in-the-money call is worth at least its intrinsic value.
	call := Option{S: 200, K: 100, R: 0.05, V: 0.2, T: 1, Call: true}
	if p := Price(call); p < 100 || p > 200 {
		t.Errorf("call price %f outside sanity range", p)
	}
	put := Option{S: 50, K: 100, R: 0.05, V: 0.2, T: 1, Call: false}
	if p := Price(put); p < 40 || p > 100 {
		t.Errorf("put price %f outside sanity range", p)
	}
}

func TestFFTDetMatchesSequential(t *testing.T) {
	const size = 512
	want := FFTSeq(size)
	for _, threads := range []int{1, 2, 4} {
		got := detRun(t, (16 << 20), 1, func(rt *core.RT) uint64 {
			return FFTDet(rt, threads, size)
		})
		if got != want {
			t.Errorf("threads=%d: FFTDet = %d, want %d", threads, got, want)
		}
	}
}

func TestFFTRecoversKnownSpectrum(t *testing.T) {
	// Sanity-check the butterfly kernel itself: a constant signal's
	// spectrum is an impulse at bin 0.
	const n = 8
	data := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		data[2*i] = 1
	}
	fftBitReverse(data)
	for half := 1; half < n; half *= 2 {
		u := FFTButterflies(data, half, 0, n/2)
		FFTApplyRef(data, half, 0, n/2, u)
	}
	if data[0] != n {
		t.Errorf("DC bin = %f, want %d", data[0], n)
	}
	for i := 1; i < n; i++ {
		if data[2*i] > 1e-9 || data[2*i] < -1e-9 {
			t.Errorf("bin %d nonzero: %f", i, data[2*i])
		}
	}
}

func TestLUVariantsAgree(t *testing.T) {
	const n = 64
	want := LUSeq(n)
	gotCont := detRun(t, uint64(8*n*n)+(8<<20), 1, func(rt *core.RT) uint64 {
		return LUContDet(rt, 2, n)
	})
	if gotCont != want {
		t.Errorf("LUContDet = %d, want %d", gotCont, want)
	}
	gotNoncont := detRun(t, uint64(8*n*n)+(8<<20), 1, func(rt *core.RT) uint64 {
		return LUNoncontDet(rt, 2, n)
	})
	if gotNoncont != want {
		t.Errorf("LUNoncontDet = %d, want %d", gotNoncont, want)
	}
}

func TestLUFactorizationIsCorrect(t *testing.T) {
	// Verify L·U ≈ A on a small matrix: multiply the factors back.
	const n = LUBlock // single block: factor == dense LU
	a := LUGen(n)
	orig := append([]float64(nil), a...)
	LUFactorDiag(a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k <= min(i, j); k++ {
				l := a[i*n+k]
				if k == i {
					l = 1
				}
				if k > i {
					l = 0
				}
				u := a[k*n+j]
				if k > j {
					u = 0
				}
				sum += l * u
			}
			diff := sum - orig[i*n+j]
			if diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("L*U differs from A at (%d,%d): %g", i, j, diff)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDistributedVariantsMatchSequential(t *testing.T) {
	const size = 4096
	wantMD5 := MD5Seq(size)
	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		gotCircuit := detRun(t, 1<<20, nodes, func(rt *core.RT) uint64 {
			return MD5Circuit(rt, nodes, size)
		})
		if gotCircuit != wantMD5 {
			t.Errorf("nodes=%d: MD5Circuit = %d, want %d", nodes, gotCircuit, wantMD5)
		}
		gotTree := detRun(t, 1<<20, nodes, func(rt *core.RT) uint64 {
			return MD5Tree(rt, nodes, size)
		})
		if gotTree != wantMD5 {
			t.Errorf("nodes=%d: MD5Tree = %d, want %d", nodes, gotTree, wantMD5)
		}
	}
	const n = 32
	wantMM := MatmultSeq(n)
	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		got := detRun(t, uint64(3*4*n*n)+(8<<20), nodes, func(rt *core.RT) uint64 {
			return MatmultTree(rt, nodes, n)
		})
		if got != wantMM {
			t.Errorf("nodes=%d: MatmultTree = %d, want %d", nodes, got, wantMM)
		}
	}
}

func TestSpecsComplete(t *testing.T) {
	specs := Specs()
	if len(specs) != 7 {
		t.Fatalf("expected the paper's 7 benchmarks, got %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.Det == nil || s.SharedBytes == nil || s.DefaultSize <= 0 {
			t.Errorf("spec %q incomplete", s.Name)
		}
	}
	for _, want := range []string{"md5", "matmult", "qsort", "blackscholes", "fft", "lu_cont", "lu_noncont"} {
		if !names[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
	if _, err := Lookup("md5"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup accepted unknown name")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := GenU32(100, 7), GenU32(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GenU32 not deterministic")
		}
	}
	f, g := GenF64(100, 7), GenF64(100, 7)
	for i := range f {
		if f[i] != g[i] {
			t.Fatal("GenF64 not deterministic")
		}
		if f[i] < 0 || f[i] >= 1 {
			t.Fatalf("GenF64 out of range: %f", f[i])
		}
	}
	if GenU32(10, 1)[0] == GenU32(10, 2)[0] {
		t.Error("different seeds gave identical streams")
	}
}
