package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// KVEngine sweeps the key-value-store reconciliation scenario over
// threads × write-ratio × value-size: directories, free-list reuse,
// chained growth and Compact all sit on the reconciliation path, and
// every column is a deterministic observable of it. (That none of them
// depends on how the host parallelizes the joins is
// TestKVStoreDeterministicAcrossGOMAXPROCS in internal/workload.)
//
// The reuse column is the extent-GC payoff: allocations served from the
// free list, where the paper's prototype leaked every freed extent.
func KVEngine(o Options) Table {
	threadSteps := []int{2, 4, 8}
	shapes := []struct {
		writePct, valueSize int
	}{{20, 128}, {60, 256}, {90, 512}}
	cfg := workload.KVConfig{Keys: 8, Ops: 48, Rounds: 3}
	if o.Quick {
		threadSteps = []int{2, 4}
		shapes = shapes[:2]
		cfg.Keys = 6
		cfg.Ops = 24
		cfg.Rounds = 2
	}

	t := Table{
		ID:    "kv",
		Title: "kv store over FS reconciliation",
		Header: []string{"threads", "write", "valsz", "conflicts", "allocs", "reused",
			"reuse", "grows", "image", "vt", "checksum"},
	}
	for _, th := range threadSteps {
		for _, sh := range shapes {
			c := cfg
			c.Threads = th
			c.WritePct = sh.writePct
			c.ValueSize = sh.valueSize
			var st workload.KVStats
			m := runMachine("kv", kernel.Config{CPUsPerNode: th}, 4<<20, func(rt *core.RT) uint64 {
				var sum uint64
				sum, st = workload.KVStore(rt, c)
				return sum
			})
			reuseRate := 0.0
			if st.GC.Allocs > 0 {
				reuseRate = float64(st.GC.Reused) / float64(st.GC.Allocs)
			}
			t.AddRow(iv(int64(th)), rat(float64(sh.writePct)/100), iv(int64(sh.valueSize)),
				iv(int64(st.Conflicts)), iv(int64(st.GC.Allocs)), iv(int64(st.GC.Reused)),
				rat(reuseRate), iv(int64(st.GC.Grows)),
				fmt.Sprintf("%dK", st.Image>>10),
				iv(m.VT), fmt.Sprintf("%08x", uint32(m.Value)))
		}
	}
	t.Note("reuse = free-list hits / extent allocations in the master image (the paper leaked these);")
	t.Note("grows counts the times the image grew in place past its 64K initial size; image is the final mapped size.")
	return t
}
