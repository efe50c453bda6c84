// Package workload implements the seven parallel benchmarks of the
// paper's evaluation (§6.2–6.3) against Determinator's native private
// workspace API (and, for blackscholes, the deterministic scheduler):
// md5, matmult, qsort, blackscholes, fft, and the two lu variants.
// Package baseline holds the corresponding nondeterministic
// ("Linux pthreads") and distributed-memory equivalents.
//
// Every workload is a pure function of its parameters and returns a
// checksum, so tests can assert that the Determinator version, the
// baseline version and a sequential reference all compute the same thing
// — determinism made checkable.
package workload

import (
	"fmt"

	"repro/internal/core"
)

// Spec describes one benchmark for the harness: how much shared memory it
// needs, and its Determinator entry point. (Baseline entry points live in
// package baseline to keep the two worlds separate, as in the paper.)
type Spec struct {
	Name string
	// DefaultSize is the problem size used by Figure 7/8 runs.
	DefaultSize int
	// SharedBytes estimates the shared-region footprint for a size.
	SharedBytes func(size int) uint64
	// Det runs the benchmark on threads private-workspace threads inside
	// an existing runtime and returns the result checksum.
	Det func(rt *core.RT, threads, size int) uint64
	// Work is the analytic pure-compute tick count of the benchmark:
	// the instruction ticks its kernels issue, excluding all isolation
	// overhead. The harness divides it across CPUs to model an ideal
	// nondeterministic baseline ("pthreads with free synchronization")
	// for the virtual-time ratio columns.
	Work func(size, threads int) int64
	// Critical, if set, is the benchmark's analytic critical path — the
	// serial fraction no baseline can parallelize (e.g. quicksort's
	// partition spine). The ideal baseline time is floored by it.
	Critical func(size, threads int) int64
	// Granularity classifies the benchmark as the paper does.
	Granularity string // "coarse" or "fine"
}

func log2ceil(v int) int {
	d := 0
	for 1<<d < v {
		d++
	}
	return d
}

// qsortCritical models quicksort's unavoidable serial fraction: the
// partition spine (each level's partition of the largest subarray, with
// its copy-in/copy-out) plus one leaf sort.
func qsortCritical(n, threads int) int64 {
	d := log2ceil(threads)
	var spine int64
	sz := n
	for l := 0; l < d && sz > 1; l++ {
		spine += int64(3 * sz)
		sz /= 2
	}
	if sz < 1 {
		sz = 1
	}
	return spine + 2*int64(sz)*int64(log2ceil(sz)) + int64(sz)
}

// luWork sums the tick accounting of luDet exactly.
func luWork(n int) int64 {
	nb := n / LUBlock
	const f = int64(luBlockFlops) * luTicksPerFlop
	var total int64
	for k := 0; k < nb; k++ {
		rest := int64(nb - k - 1)
		total += f/3 + 2*rest*(f/2) + rest*rest*f
	}
	return total
}

// Specs returns all benchmarks in the paper's Figure 7 order.
func Specs() []Spec {
	return []Spec{
		{
			Name:        "md5",
			DefaultSize: 1 << 15,
			SharedBytes: func(int) uint64 { return 1 << 20 },
			Det:         MD5Det,
			Work:        func(size, threads int) int64 { return int64(size) * md5TicksPerHash },
			Granularity: "coarse",
		},
		{
			Name:        "matmult",
			DefaultSize: 256,
			SharedBytes: func(n int) uint64 { return uint64(3*n*n*4) + (8 << 20) },
			Det:         MatmultDet,
			Work:        func(n, threads int) int64 { return int64(n) * int64(n) * int64(n) * matmulTicksPerMAC },
			Granularity: "coarse",
		},
		{
			Name:        "qsort",
			DefaultSize: 1 << 17,
			SharedBytes: func(n int) uint64 { return uint64(4*n) + (8 << 20) },
			Det:         QsortDet,
			Work:        func(n, threads int) int64 { return qsortTicksPerElem * int64(n) * int64(log2ceil(n)) },
			Critical:    qsortCritical,
			Granularity: "coarse",
		},
		{
			Name:        "blackscholes",
			DefaultSize: 1 << 14,
			SharedBytes: func(n int) uint64 { return uint64(6*8*n) + (8 << 20) },
			Det:         BlackscholesDsched,
			Work:        func(size, threads int) int64 { return int64(size) * bsTicksPerOption },
			Granularity: "coarse",
		},
		{
			Name:        "fft",
			DefaultSize: 1 << 14,
			SharedBytes: func(n int) uint64 { return uint64(16*n) + (8 << 20) },
			Det:         FFTDet,
			Work:        func(n, threads int) int64 { return int64(n/2) * int64(log2ceil(n)) * fftTicksPerButterfly },
			Granularity: "fine",
		},
		{
			Name:        "lu_cont",
			DefaultSize: 128,
			SharedBytes: func(n int) uint64 { return uint64(8*n*n) + (8 << 20) },
			Det:         LUContDet,
			Work:        func(n, threads int) int64 { return luWork(n) },
			Granularity: "fine",
		},
		{
			Name:        "lu_noncont",
			DefaultSize: 128,
			SharedBytes: func(n int) uint64 { return uint64(8*n*n) + (8 << 20) },
			Det:         LUNoncontDet,
			Work:        func(n, threads int) int64 { return luWork(n) },
			Granularity: "fine",
		},
	}
}

// Lookup finds a spec by name.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Xorshift returns a deterministic pseudo-random generator — the
// workloads' only source of "randomness", so every run sees identical
// data.
func Xorshift(seed uint64) func() uint64 {
	s := seed
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

// GenU32 generates n deterministic pseudo-random uint32 values.
func GenU32(n int, seed uint64) []uint32 {
	g := Xorshift(seed)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(g())
	}
	return out
}

// GenF64 generates n deterministic values in [0, 1).
func GenF64(n int, seed uint64) []float64 {
	g := Xorshift(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(g()>>11) / (1 << 53)
	}
	return out
}

// stripe splits [0, total) into nth contiguous stripes and returns the
// id-th one.
func stripe(total, nth, id int) (lo, hi int) {
	lo = id * total / nth
	hi = (id + 1) * total / nth
	return
}
