package repro

import (
	"runtime"
	"testing"

	"repro/internal/dsched"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Allocation ceilings for one pass of the fine-grained programs — fft,
// lu_cont and lu_noncont at DefaultSize on two threads, the par_fine op
// without its goroutine twins — measured at 694 allocations and at most
// 6 001 976 B, plus 2 % slack. (With two buffers and four Env calls per
// fft butterfly group, 33 434 and 6 001 944 B; with a goroutine
// spawned per space start, 33 452 and 6 002 440 B; before a finished
// machine handed its frames to the depot the next machine draws on, a
// pass allocated 33 693 and 7 632 080 B; before each machine recycled the
// pages and tables its spaces free, 34 902 and 13 908 304 B: a fresh page
// per COW break, a fresh table per table copy; before spaces stopped
// carrying dirty bitmaps, 33 855 and 7 781 024 B; before a barrier's
// resync and a fork batch shared one Put, 33 704.) A 4 KiB buffer per
// typed access adds thousands. A change that lowers a count lowers its
// ceiling.
const (
	finePassAllocs = 694 * 102 / 100
	finePassBytes  = 6_001_976 * 102 / 100
)

// Allocation ceiling for one pass of par_coarse's dsched program —
// blackscholes at DefaultSize on two threads — sliced into 34 rounds by
// a 50 000-instruction quantum: 68 starts and 68 collects through the
// runtime's Start and Collect. Measured at 148 allocations, the same run
// to run, plus 2 % slack (354 before a finished machine handed its frames
// to the depot the next machine draws on). At the default quantum the
// program runs one round of two starts, and 2 % of its allocations would
// hide an allocation per start; here one adds 68, well past the slack.
const (
	schedPassQuantum = 50_000
	schedPassAllocs  = 148 * 102 / 100
)

func TestFinePassAllocations(t *testing.T) {
	const threads = 2
	var fine []workload.Spec
	for _, s := range workload.Specs() {
		if s.Granularity == "fine" {
			fine = append(fine, s)
		}
	}
	allocs, bytes := leastPassAllocs(func() {
		for _, s := range fine {
			size := s.DefaultSize
			res := Run(Options{
				Kernel:     MachineConfig{CPUsPerNode: threads},
				SharedSize: s.SharedBytes(size),
			}, func(rt *RT) uint64 { return s.Det(rt, threads, size) })
			if res.Status != kernel.StatusHalted {
				t.Fatalf("%s stopped with %v: %v", s.Name, res.Status, res.Err)
			}
		}
	})
	if allocs > finePassAllocs || bytes > finePassBytes {
		t.Errorf("fine pass: %d allocations, %d bytes; ceiling %d, %d", allocs, bytes, finePassAllocs, finePassBytes)
	}
}

func TestSchedPassAllocations(t *testing.T) {
	const threads = 2
	bs, err := workload.Lookup("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	size := bs.DefaultSize
	var rounds int64
	allocs, _ := leastPassAllocs(func() {
		res := Run(Options{
			Kernel:     MachineConfig{CPUsPerNode: threads},
			SharedSize: bs.SharedBytes(size),
		}, func(rt *RT) uint64 {
			v, st := workload.BlackscholesSched(rt, threads, size, dsched.Config{Quantum: schedPassQuantum})
			rounds = st.Rounds
			return v
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("blackscholes stopped with %v: %v", res.Status, res.Err)
		}
	})
	if rounds != 34 {
		t.Fatalf("the pass ran %d rounds, want 34", rounds)
	}
	if allocs > schedPassAllocs {
		t.Errorf("sched pass: %d allocations; ceiling %d", allocs, schedPassAllocs)
	}
}

// leastPassAllocs reports the heap allocations one run of pass makes,
// and their bytes, the lesser of two runs after a warm-up run: the first
// pass in the process allocates more, and a collection mid-pass empties
// the runtime's own pools, which the pass after it refills. It runs on
// one P, as testing.AllocsPerRun does: the spaces' goroutines then come
// from one free list.
func leastPassAllocs(pass func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	allocs, bytes = passAllocs(pass)
	if a, b := passAllocs(pass); a < allocs {
		allocs, bytes = a, b
	}
	return allocs, bytes
}

// passAllocs reports the heap allocations run makes, and their bytes.
func passAllocs(run func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
