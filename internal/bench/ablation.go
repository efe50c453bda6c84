package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
)

// ROCache is the ablation of §3.3's read-only page caching: when a space
// repeatedly migrates among nodes, each node's kernel reuses cached
// copies of pages the space only reads (program code, reference data).
// The workload is the access pattern the optimization targets: a master
// carrying a read-only reference table (64 pages) makes several laps of
// the cluster, consulting the table on every node to dispatch work —
// the "travelling salesman" pattern of md5-circuit with a working set
// big enough to matter.
//
// The kernel has no switch to turn the cache off, so the uncached column
// is a placement: the same program on a laps×nodes-node machine, where
// lap 0 visits nodes 0..nodes-1 as the cached run does and every later
// worker is forked and joined on a node of its own, numbered by its id.
// Each visit is then a first visit and pays for the table again, which
// is what every revisit would cost without per-node caching.
func ROCache(o Options) Table {
	nodeSteps := []int{2, 4, 8, 16}
	if o.Quick {
		nodeSteps = []int{2, 4}
	}
	t := Table{
		ID:     "rocache",
		Title:  "ablation: read-only page cache for re-migrating spaces (§3.3)",
		Header: []string{"nodes", "cached-vt", "uncached-vt", "penalty"},
	}
	for _, n := range nodeSteps {
		c := rocacheRun(n, false).VT
		u := rocacheRun(n, true).VT
		t.AddRow(iv(int64(n)), iv(c), iv(u), pct(float64(u)/float64(c)-1))
	}
	t.Note("a master carrying a %d-page read-only table makes %d laps of the cluster;", rocacheRefPages, rocacheLaps)
	t.Note("without per-node caching every revisit re-transfers the table.")
	return t
}

const (
	rocacheRefPages = 64
	rocacheLaps     = 3
)

// rocacheRun is one run of ROCache's master over nodes nodes, cached or
// uncached.
func rocacheRun(nodes int, uncached bool) kernel.RunResult {
	size := nodes
	if uncached {
		size = rocacheLaps * nodes
	}
	res := core.Run(core.Options{
		Kernel: kernel.Config{
			Nodes:       size,
			CPUsPerNode: 1,
		},
		SharedSize: 1 << 20,
	}, func(rt *core.RT) uint64 {
		env := rt.Env()
		ref := rt.AllocPages(rocacheRefPages)
		table := make([]uint32, rocacheRefPages*1024)
		for i := range table {
			table[i] = uint32(i)
		}
		env.WriteU32s(ref, table)
		buf := make([]uint32, rocacheRefPages*1024)
		for lap := 0; lap < rocacheLaps; lap++ {
			for nd := 0; nd < nodes; nd++ {
				id := lap*nodes + nd
				on := nd
				if uncached {
					on = id
				}
				// Fork a worker on its node (this migrates the master
				// there)...
				if err := rt.ForkOn(on, id, func(t *core.Thread) uint64 {
					t.Env().Tick(10_000)
					return 0
				}); err != nil {
					panic(err)
				}
				// ...where the master consults its reference table to
				// decide the next dispatch.
				env.ReadU32s(ref, buf)
				if _, err := rt.JoinOn(on, id); err != nil {
					panic(err)
				}
			}
		}
		return 0
	})
	if res.Status != kernel.StatusHalted {
		panic(fmt.Sprintf("bench: rocache ablation stopped: %v %v", res.Status, res.Err))
	}
	return res
}
