package serve

import (
	"runtime"
	"testing"

	"repro"
)

// Allocation ceiling for one served op — open, run and close of a stripe
// session, stepped through the Server in eight one-phase slices with every
// session resident — measured at 336 allocations, the same op to op, plus
// 2 % slack. (Before a finished machine handed its frames to the depot
// the next machine draws on, an op allocated 346; while each park read
// its footprint off a walk of the forest with two fresh maps, 437.) A
// page per access adds hundreds. A change that lowers the count lowers
// the ceiling.
const serveOpAllocs = 336 * 102 / 100

func TestServeOpAllocations(t *testing.T) {
	maker := StripeProgram(4, 8, 1024)
	want := directResult(t, maker, 7)
	s, err := New(Config{Store: repro.NewMemStore(), SessionOpts: testOpts(), Workers: 2, Resident: 64, Slice: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	s.Register("stripe", maker)
	op := func() {
		id, err := s.Open("t", "stripe", 7)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := s.Run("t", id); err != nil || res != want {
			t.Fatalf("served %+v, %v; direct %+v", res, err, want)
		}
		if err := s.CloseSession("t", id); err != nil {
			t.Fatal(err)
		}
	}
	// The least of three ops after a warm-up, on one P as in the root
	// package's pass ceilings: the first op grows the server's tables, and
	// a collection mid-op empties the runtime's pools for the next.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if st := s.Stats(); st.Evictions != 0 || st.BitEqFail != 0 || st.Slices != 4*8 {
		t.Fatalf("four ops: %+v", st)
	}
	if least > serveOpAllocs {
		t.Errorf("one served op: %d allocations; ceiling %d", least, serveOpAllocs)
	}
}
