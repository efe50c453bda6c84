package detmake

import (
	"runtime"
	"testing"

	"repro/internal/castore"
)

// Allocation ceilings for one pass of the five benchmark shapes — the
// make_cold and make_warm op — measured once a space kept its goroutine
// from one start to the next: cold 6 302 allocations and 1 089 000 B,
// warm 2 371 and 283 736 B, each plus 2 % slack. (A goroutine spawned
// per start, a cold pass allocated 6 341 times and 1 089 936 B; before a
// finished machine handed its frames to the depot the next machine draws
// on, a cold pass allocated 6 560 times and 4 026 520 B,
// a warm one 2 463 times and 1 290 656 B, under ceilings measured when a
// task message came to be sized before it is written: cold 6 573 and
// 4 076 184 B, warm 2 475 and 1 339 888 B. Growing each message from nil,
// a cold pass allocated 7 071 times and 4 103 416 B; before spaces stopped
// carrying dirty bitmaps 7 142 times and 4 524 264 B, a warm one 2 495
// times and 1 387 248 B; before the frame pool a cold pass allocated
// 7 365 times and 5 961 664 B.) Repeated passes agree to within a few
// dozen allocations and bytes; a buffer per file write adds several
// hundred. A change that lowers a count lowers its ceiling.
const (
	coldPassAllocs = 6302 * 102 / 100
	coldPassBytes  = 1_089_000 * 102 / 100
	warmPassAllocs = 2371 * 102 / 100
	warmPassBytes  = 283_736 * 102 / 100
)

func TestBuildPassAllocations(t *testing.T) {
	shapes := benchShapes(t)
	pass := func(store castore.BlobStore) {
		for _, s := range shapes {
			if _, err := Build(Config{Graph: s.graph, Sources: s.sources, Store: store}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One P, as testing.AllocsPerRun runs: the spaces' goroutines then
	// come from one free list.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := castore.NewMemStore()
	pass(warm) // also the first pass in the process, which allocates more
	for _, c := range []struct {
		name          string
		run           func()
		allocs, bytes uint64
	}{
		{"cold", func() { pass(castore.NewMemStore()) }, coldPassAllocs, coldPassBytes},
		{"warm", func() { pass(warm) }, warmPassAllocs, warmPassBytes},
	} {
		// The lesser of two passes: a collection mid-pass empties the
		// runtime's own pools, and the pass after it refills them.
		allocs, bytes := passAllocs(c.run)
		if a, b := passAllocs(c.run); a < allocs {
			allocs, bytes = a, b
		}
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s pass: %d allocations, %d bytes; ceiling %d, %d", c.name, allocs, bytes, c.allocs, c.bytes)
		}
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
