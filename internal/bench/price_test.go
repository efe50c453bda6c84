package bench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// TestPricesNeverReachResults: the cost model decides when things happen
// in virtual time, never what happens. Fig 7's seven programs at quick
// size, at 3 and 12 CPUs on 1 and 2 nodes, under 8 seeded cost models
// per cell return the default model's result and instruction count.
// Each model draws the five kernel prices and MigrateMsg, PageTransfer
// and BatchMsg from [0, 3× default], a quarter of them 0, and BatchPages
// from {1, 64}.
func TestPricesNeverReachResults(t *testing.T) {
	o := Options{Quick: true}
	rng := rand.New(rand.NewSource(4))
	price := func(def int64) int64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.Int63n(3*def + 1)
	}
	for _, spec := range workload.Specs() {
		size := o.size(spec)
		for _, cpus := range []int{3, 12} {
			for _, nodes := range []int{1, 2} {
				run := func(cost kernel.CostModel) kernel.RunResult {
					res := core.Run(core.Options{
						Kernel:     kernel.Config{Nodes: nodes, CPUsPerNode: cpus, Cost: cost},
						SharedSize: spec.SharedBytes(size),
					}, func(rt *core.RT) uint64 { return spec.Det(rt, cpus, size) })
					if res.Status != kernel.StatusHalted {
						t.Fatalf("%s at %d CPUs on %d nodes under %+v: %v: %v", spec.Name, cpus, nodes, cost, res.Status, res.Err)
					}
					return res
				}
				def := kernel.DefaultCostModel()
				want := run(def)
				for i := 0; i < 8; i++ {
					cost := def
					for _, p := range []*int64{&cost.Syscall, &cost.PageCopy, &cost.PageCompare, &cost.PageAdopt,
						&cost.ByteMerge, &cost.MigrateMsg, &cost.PageTransfer, &cost.BatchMsg} {
						*p = price(*p)
					}
					cost.BatchPages = []int{1, 64}[rng.Intn(2)]
					if got := run(cost); got.Ret != want.Ret || got.Insns != want.Insns {
						t.Errorf("%s at %d CPUs on %d nodes under %+v: result %#x, %d insns; default model %#x, %d insns",
							spec.Name, cpus, nodes, cost, got.Ret, got.Insns, want.Ret, want.Insns)
					}
				}
			}
		}
	}
}
