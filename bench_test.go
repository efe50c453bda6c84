// The module's micro-benchmarks (`go test -bench`): testing.B's own
// repetition is the only timing loop here. The package is external, and
// must be: internal/bench imports repro (its ckpt sweep saves and
// resumes through the Session), and an external test package may import
// a package that imports the one under test without a cycle.
package repro_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/kernel"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Experiment benchmarks: one testing.B target per figure of the paper's
// evaluation, running the same harness as cmd/detbench in quick mode —
// what it costs the host to regenerate a figure. `go test -bench=Fig7`
// etc.; full-size runs via `go run ./cmd/detbench`.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := bench.Run(id, ".", bench.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkQuantum(b *testing.B) { benchExperiment(b, "quantum") }

// Per-workload micro-benchmarks: each benchmark kernel on Determinator
// and on the nondeterministic baseline, at a fixed small size, so
// `go test -bench=. -benchmem` exposes the isolation overhead directly.
// Both sides report allocations per op: a program's own host buffers
// should cost the two alike.

const (
	microThreads = 4
	microMD5     = 1 << 11
	microMatmult = 64
	microQsort   = 1 << 13
	microBS      = 1 << 11
	microFFT     = 1 << 11
	microLU      = 64
)

func benchDet(b *testing.B, name string, size int) {
	b.Helper()
	b.ReportAllocs()
	spec, err := workload.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := core.Run(core.Options{
			Kernel:     kernel.Config{CPUsPerNode: microThreads},
			SharedSize: spec.SharedBytes(size),
		}, func(rt *core.RT) uint64 {
			return spec.Det(rt, microThreads, size)
		})
		if res.Status != kernel.StatusHalted {
			b.Fatalf("%s: %v %v", name, res.Status, res.Err)
		}
	}
}

func benchBase(b *testing.B, name string, size int) {
	b.Helper()
	b.ReportAllocs()
	fn := baseline.Baselines()[name]
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += fn(microThreads, size)
	}
	_ = sink
}

func BenchmarkDetMD5(b *testing.B)           { benchDet(b, "md5", microMD5) }
func BenchmarkBaseMD5(b *testing.B)          { benchBase(b, "md5", microMD5) }
func BenchmarkDetMatmult(b *testing.B)       { benchDet(b, "matmult", microMatmult) }
func BenchmarkBaseMatmult(b *testing.B)      { benchBase(b, "matmult", microMatmult) }
func BenchmarkDetQsort(b *testing.B)         { benchDet(b, "qsort", microQsort) }
func BenchmarkBaseQsort(b *testing.B)        { benchBase(b, "qsort", microQsort) }
func BenchmarkDetBlackscholes(b *testing.B)  { benchDet(b, "blackscholes", microBS) }
func BenchmarkBaseBlackscholes(b *testing.B) { benchBase(b, "blackscholes", microBS) }
func BenchmarkDetFFT(b *testing.B)           { benchDet(b, "fft", microFFT) }
func BenchmarkBaseFFT(b *testing.B)          { benchBase(b, "fft", microFFT) }
func BenchmarkDetLUCont(b *testing.B)        { benchDet(b, "lu_cont", microLU) }
func BenchmarkDetLUNoncont(b *testing.B)     { benchDet(b, "lu_noncont", microLU) }
func BenchmarkBaseLU(b *testing.B)           { benchBase(b, "lu_cont", microLU) }

// BenchmarkParSplit is the par_* workloads' wall_ratio split by program:
// one sub-benchmark per suite program at Spec.DefaultSize on GOMAXPROCS
// threads, each iteration the deterministic run on a fresh machine and
// then the goroutine twin, as the benchmark's pass interleaves them. It
// reports the median det-ms and twin-ms over the iterations and their
// ratio; `make par-split` runs it at 40 iterations. A checksum that
// differs between the two sides fails it.
func BenchmarkParSplit(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	bases := baseline.Baselines()
	for _, spec := range workload.Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			size := spec.DefaultSize
			det := make([]float64, 0, b.N)
			twin := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				res := core.Run(core.Options{
					Kernel:     kernel.Config{CPUsPerNode: threads},
					SharedSize: spec.SharedBytes(size),
				}, func(rt *core.RT) uint64 { return spec.Det(rt, threads, size) })
				t1 := time.Now()
				want := bases[spec.Name](threads, size)
				t2 := time.Now()
				if res.Status != kernel.StatusHalted {
					b.Fatalf("%v: %v", res.Status, res.Err)
				}
				if res.Ret != want {
					b.Fatalf("deterministic checksum %#x, goroutine twin %#x", res.Ret, want)
				}
				det = append(det, t1.Sub(t0).Seconds()*1e3)
				twin = append(twin, t2.Sub(t1).Seconds()*1e3)
			}
			d, w := median(det), median(twin)
			b.ReportMetric(d, "det-ms")
			b.ReportMetric(w, "twin-ms")
			b.ReportMetric(d/w, "ratio")
		})
	}
}

func median(v []float64) float64 {
	slices.Sort(v)
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}

// Substrate micro-benchmarks: the primitive costs behind every number
// above.

// BenchmarkForkJoinThread times one fork and join of a thread that
// writes a word. A thread's space keeps its goroutine from one fork to
// the next, so the benchmark fails itself if the process holds more
// goroutines after b.N fork/joins than after the first.
func BenchmarkForkJoinThread(b *testing.B) {
	b.ReportAllocs()
	var first, last int
	res := core.Run(core.Options{}, func(rt *core.RT) uint64 {
		x := rt.Alloc(4, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Fork(0, func(t *core.Thread) uint64 {
				t.Env().WriteU32(x, uint32(i))
				return 0
			}); err != nil {
				panic(err)
			}
			if _, err := rt.Join(0); err != nil {
				panic(err)
			}
			if i == 0 {
				first = runtime.NumGoroutine()
			}
		}
		last = runtime.NumGoroutine()
		return 0
	})
	if res.Status != kernel.StatusHalted {
		b.Fatalf("%v: %v", res.Status, res.Err)
	}
	if last > first {
		b.Fatalf("%d goroutines after %d fork/joins, %d after the first", last, b.N, first)
	}
}

// BenchmarkMerge times the merge engine on a dirty-heavy 4-thread join:
// four children each dirty their entire quarter of a 64 MiB region, the
// parent touches every page so the merges take the byte-compare slow
// path, and all four are joined in thread-id order. (The word kernel
// against its per-byte oracle is BenchmarkMergeKernels in internal/vm.)
func BenchmarkMerge(b *testing.B) {
	const (
		mergePages   = 16 * 1024 // 64 MiB
		mergeThreads = 4
	)
	b.Run("serial", func(b *testing.B) {
		w := bench.BuildMergeWorkload(mergePages, mergeThreads, 1.0, true)
		defer w.Free()
		b.ResetTimer()
		var stats vm.MergeStats
		for i := 0; i < b.N; i++ {
			stats, _ = w.JoinAll(vm.MergeConfig{})
		}
		b.ReportMetric(float64(stats.PagesCompared), "pages-compared/op")
		b.ReportMetric(float64(stats.PtesScanned), "ptes-scanned/op")
		b.SetBytes(int64(stats.PagesCompared) * vm.PageSize)
	})
}

// BenchmarkDschedRound drives the deterministic scheduler's round engine
// on a blocked-heavy 8-thread workload: threads serialize on one mutex and
// the holder scans shared memory for many read-only quanta, so at any
// instant one thread is runnable and seven sit blocked. The metric is
// rounds per second of host time.
func BenchmarkDschedRound(b *testing.B) {
	const (
		dsThreads = 8
		dsPages   = 256 // 1 MiB scan per thread: ~65 quanta each at q=2000
		dsQuantum = 2000
		dsShared  = uint64(64 << 20)
	)
	var rounds, skipped int64
	var sched time.Duration
	for i := 0; i < b.N; i++ {
		// Only the workload body is timed — machine construction and
		// shared-region mapping stay outside the window. The body's own
		// setup (256 table-init writes) is negligible against 520 rounds.
		res := core.Run(core.Options{
			Kernel:     kernel.Config{CPUsPerNode: dsThreads},
			SharedSize: dsShared,
		}, func(rt *core.RT) uint64 {
			start := time.Now()
			value, st := workload.LockScan(rt, dsThreads, dsPages, dsched.Config{Quantum: dsQuantum})
			sched += time.Since(start)
			rounds, skipped = st.Rounds, st.SyncSkipped
			return value
		})
		if res.Status != kernel.StatusHalted {
			b.Fatalf("%v: %v", res.Status, res.Err)
		}
	}
	b.ReportMetric(float64(rounds)*float64(b.N)/sched.Seconds(), "rounds/sec")
	b.ReportMetric(float64(rounds), "rounds/op")
	b.ReportMetric(float64(skipped), "skipped/op")
}

// BenchmarkMergeDirtyPages is one fork → write N pages → join in steady
// state: the child's first write copies the shared table and breaks COW on
// every page, the join adopts its table, and the next fork's re-snapshot
// frees the last round's. The machine's frame pool hands those frees to
// the next round, so past the first round an op allocates a few hundred
// bytes whatever N is (B/op, with enough iterations to amortise the first).
// The dense case writes one page of a table whose 1024 pages the parent
// backed before the first fork — par_fine's shape, and the worst case for
// the join's walk, which visits every slot either side backs.
func BenchmarkMergeDirtyPages(b *testing.B) {
	for _, c := range []struct {
		name          string
		dirty, backed int // pages the child writes; pages of their table backed beforehand
	}{
		{"dirty=1", 1, 0}, {"dirty=16", 16, 0}, {"dirty=256", 256, 0},
		{"dense", 1, 1024},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			res := core.Run(core.Options{}, func(rt *core.RT) uint64 {
				addr := rt.Alloc(4<<20, 4<<20) // one whole level-2 table
				rt.Env().WriteU32s(addr, make([]uint32, c.backed*1024))
				buf := make([]uint32, c.dirty*1024)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rt.Fork(0, func(t *core.Thread) uint64 {
						t.Env().WriteU32s(addr, buf)
						return 0
					}); err != nil {
						panic(err)
					}
					if _, err := rt.Join(0); err != nil {
						panic(err)
					}
				}
				return 0
			})
			if res.Status != kernel.StatusHalted {
				b.Fatalf("%v: %v", res.Status, res.Err)
			}
		})
	}
}
