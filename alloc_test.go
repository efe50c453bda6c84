package repro

import (
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// Allocation ceilings for one pass of the fine-grained programs — fft,
// lu_cont and lu_noncont at DefaultSize on two threads, the par_fine op
// without its goroutine twins — measured at 33 778 allocations and
// 7 636 768 B, the same run to run, plus 2 % slack. (Before each machine
// recycled the pages and tables its spaces free, a pass allocated 34 902
// and 13 908 304 B: a fresh page per COW break, a fresh table per table
// copy; before spaces stopped carrying dirty bitmaps, 33 855 and
// 7 781 024 B.) A 4 KiB buffer per typed access adds thousands. A change
// that lowers a count lowers its ceiling.
const (
	finePassAllocs = 33778 * 102 / 100
	finePassBytes  = 7_636_768 * 102 / 100
)

func TestFinePassAllocations(t *testing.T) {
	const threads = 2
	var fine []workload.Spec
	for _, s := range workload.Specs() {
		if s.Granularity == "fine" {
			fine = append(fine, s)
		}
	}
	pass := func() {
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
	}
	// One P, as testing.AllocsPerRun runs: the spaces' goroutines then
	// come from one free list.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass() // the first pass in the process allocates more
	// The lesser of two passes: a collection mid-pass empties the
	// runtime's own pools, and the pass after it refills them.
	allocs, bytes := passAllocs(pass)
	if a, b := passAllocs(pass); a < allocs {
		allocs, bytes = a, b
	}
	if allocs > finePassAllocs || bytes > finePassBytes {
		t.Errorf("fine pass: %d allocations, %d bytes; ceiling %d, %d", allocs, bytes, finePassAllocs, finePassBytes)
	}
}

// passAllocs reports the heap allocations run makes, and their bytes.
func passAllocs(run func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
