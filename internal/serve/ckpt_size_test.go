package serve

import (
	"testing"

	"repro"
	"repro/internal/castore"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// A checkpoint costs what the machine backs, not what it maps. At
// barrier 1 the stripe session the serve benchmarks run backs 10 pages in
// 21 tables that map 1024 slots each: its forest image is those pages
// plus a few bytes per table, and its chunk root falls under castore's
// 4 KiB flate floor, so it is stored raw. An image or root that listed
// every mapped slot would be mostly demand-zero entries, several times
// both bounds.
func TestStripeCheckpointCostsWhatItBacks(t *testing.T) {
	sess, err := repro.NewSession(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	img, err := sess.RunToCheckpoint(StripeProgram(4, 8, 1024)(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, forest, err := kernel.SplitImage(img.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if bound := 10*vm.PageSize + 2<<10; len(forest) > bound {
		t.Errorf("forest image is %d bytes, want at most %d (10 pages and 2 KiB)", len(forest), bound)
	}
	store := castore.NewMemStore()
	key, err := vm.ChunkForest(store, forest, castore.Key{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(root) >= 4<<10 {
		t.Errorf("chunk root is %d bytes, want under 4 KiB", len(root))
	}
	t.Logf("forest image %d bytes, chunk root %d bytes", len(forest), len(root))
}
