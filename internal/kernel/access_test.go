package kernel

import (
	"fmt"
	"testing"

	"repro/internal/vm"
)

// BenchmarkEnvTypedAccess times a bulk float64 load and store through Env
// in a root space, at an FFT butterfly's 2, a short run's 8 and a matrix
// row's 64 elements, on a page the space owns: the memory tick and span
// check, then the vm hit test and one copy. It fails if an access
// allocates (`make bench-smoke` runs it).
func BenchmarkEnvTypedAccess(b *testing.B) {
	const addr = 16 * vm.PageSize
	for _, n := range []int{2, 8, 64} {
		for _, write := range []bool{false, true} {
			name := "read"
			if write {
				name = "write"
			}
			b.Run(fmt.Sprintf("f64/%s/%d", name, n), func(b *testing.B) {
				var allocs float64
				res := New(Config{}).Run(func(env *Env) {
					env.SetPerm(addr, vm.PageSize, vm.PermRW)
					vals := make([]float64, n)
					env.WriteF64s(addr, vals) // back the page
					access := env.ReadF64s
					if write {
						access = env.WriteF64s
					}
					allocs = testing.AllocsPerRun(10, func() { access(addr, vals) })
					b.ReportAllocs()
					b.SetBytes(int64(8 * n))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						access(addr, vals)
					}
				}, 0)
				if res.Status != StatusHalted {
					b.Fatalf("%v: %v", res.Status, res.Err)
				}
				if allocs != 0 {
					b.Fatalf("%v allocs/op, want 0", allocs)
				}
			})
		}
	}
}
