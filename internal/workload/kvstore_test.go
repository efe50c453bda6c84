package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

func runKVStore(t *testing.T, cfg KVConfig) (uint64, KVStats, int64) {
	t.Helper()
	var sum uint64
	var st KVStats
	res := core.Run(core.Options{
		Kernel:     kernel.Config{CPUsPerNode: cfg.Threads},
		SharedSize: 4 << 20,
	}, func(rt *core.RT) uint64 {
		sum, st = KVStore(rt, cfg)
		return sum
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("kv run stopped with %v: %v", res.Status, res.Err)
	}
	return sum, st, res.VT
}

// TestKVStoreDeterministicAcrossGOMAXPROCS is the scenario's core
// claim: the checksum (which folds the final image bytes), the conflict
// history and the virtual time are all independent of host parallelism
// (GOMAXPROCS) and of repetition.
func TestKVStoreDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := KVConfig{Threads: 4, Keys: 6, Ops: 24, Rounds: 2, WritePct: 70, ValueSize: 200}
	def := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	sum1, st1, vt1 := runKVStore(t, cfg)
	runtime.GOMAXPROCS(def)
	for rerun := 0; rerun < 2; rerun++ {
		sum, st, vt := runKVStore(t, cfg)
		if sum != sum1 || st != st1 || vt != vt1 {
			t.Fatalf("GOMAXPROCS=%d run %d differs from GOMAXPROCS=1: checksum %#x vs %#x, stats %+v vs %+v, vt %d vs %d",
				def, rerun, sum, sum1, st, st1, vt, vt1)
		}
	}
}

// TestKVStoreConflictAndReuseShape pins the scenario's deterministic
// observables: every round conflicts exactly on the hot key (threads-1
// diverging children), unlink-heavy runs reuse freed extents, and the
// initial 64K image grows by chaining regions.
func TestKVStoreConflictAndReuseShape(t *testing.T) {
	cfg := KVConfig{Threads: 3, Keys: 6, Ops: 30, Rounds: 3, WritePct: 90, ValueSize: 300}
	_, st, _ := runKVStore(t, cfg)
	if want := (cfg.Threads - 1) * cfg.Rounds; st.Conflicts != want {
		t.Errorf("conflicts = %d, want %d (threads-1 per round)", st.Conflicts, want)
	}
	if st.GC.Reused == 0 {
		t.Error("unlink-heavy run reused no extents")
	}
	if st.GC.Compactions != cfg.Rounds {
		t.Errorf("compactions = %d, want %d (one per round)", st.GC.Compactions, cfg.Rounds)
	}
	if st.GC.Grows == 0 {
		t.Error("image never grew past its 64K initial region")
	}
	if st.GC.Dropped != 0 {
		t.Errorf("free table overflowed (%d extents leaked) at this scale", st.GC.Dropped)
	}
}
