package dsched_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// TestThreadsStayHomeAfterPlacedFork: a scheduler's threads are
// home-node threads, whatever the master's runtime placed under the same
// ids before. Here an earlier ParallelDoOn put threads 0 and 1 on node 1;
// the scheduler's threads 0 and 1 must still be forked, resumed and
// collected on the master's home node. The result equals the run without
// that placement, and the virtual time and the master's cross-node
// messages are pinned at their home-node values: a scheduler thread left
// on node 1 would ship its delta over the wire at every collect.
func TestThreadsStayHomeAfterPlacedFork(t *testing.T) {
	const threads, size = 2, 1 << 10
	bs, _ := workload.Lookup("blackscholes")
	var sched kernel.NetStats // the master's cross-node traffic during the scheduler's run
	run := func(placed bool) kernel.RunResult {
		return core.Run(core.Options{
			Kernel:     kernel.Config{Nodes: 2, CPUsPerNode: threads},
			SharedSize: bs.SharedBytes(size),
		}, func(rt *core.RT) uint64 {
			if placed {
				if _, err := rt.ParallelDoOn(threads, func(int) int { return 1 },
					func(*core.Thread) uint64 { return 0 }); err != nil {
					panic(err)
				}
			}
			before := rt.Env().NetStats()
			v, _ := workload.BlackscholesSched(rt, threads, size, dsched.Config{Quantum: 5_000})
			after := rt.Env().NetStats()
			sched = kernel.NetStats{Msgs: after.Msgs - before.Msgs, Pages: after.Pages - before.Pages}
			return v
		})
	}
	home, placed := run(false), run(true)
	for _, r := range []kernel.RunResult{home, placed} {
		if r.Status != kernel.StatusHalted {
			t.Fatalf("%v: %v", r.Status, r.Err)
		}
	}
	if placed.Ret != home.Ret {
		t.Errorf("checksum %#x after a placed fork, %#x without", placed.Ret, home.Ret)
	}
	// The master starts the scheduler's run on node 1, where the
	// ParallelDoOn left it, and its traffic is what coming home costs:
	// one request fetching 12 pages on node 1 and the migration home,
	// {2, 12}. Its home node has held its pages since birth and still
	// holds every one it did not write on node 1, so neither it nor the
	// threads it forks at home fetch anything there. A home cache lost at
	// the first migration costs 256 912 more: the master refetches 2
	// pages at the end of the run (one request, 25 000 + 2 × 70 000 =
	// 165 000) and each thread one page (91 912 on the critical path),
	// reading VT 1 983 202 and {3, 14}.
	if home.VT != 206_490 || placed.VT != 1_726_290 || sched != (kernel.NetStats{Msgs: 2, Pages: 12}) {
		t.Errorf("vt %d without the placed fork, %d after it, scheduler traffic %+v; want 206490, 1726290, {Msgs:2 Pages:12}",
			home.VT, placed.VT, sched)
	}
}
