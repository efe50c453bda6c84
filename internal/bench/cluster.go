package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Cluster runs the stencil workload on growing clusters with its threads
// placed in blocks, so every multi-node row is collected through the
// remote nodes' delegate collectors. Results are asserted bit-identical,
// not just reported: every row's checksum equals the same program's on
// one node, and a deliberate cross-node write/write conflict reports the
// byte addresses and totals the one-node run reports (one node pins the
// thread, a spanning run the node). The comparison with a caller that
// visits every remote thread itself — fewer root messages and lower
// virtual time — is asserted by internal/core's
// TestTreeCollectorCutsRootMessages against its flat reference.
//
// The msg-base column is the explicit message-passing program over the
// same cost constants — with the same per-batch framing — the fairness
// bound the delegates work toward.
func Cluster(o Options) Table {
	nodeSteps := []int{1, 2, 4, 8}
	pages, phases := 4, 4
	if o.Quick {
		nodeSteps = []int{1, 2, 4}
		pages, phases = 2, 3
	}
	cost := kernel.DefaultCostModel()

	t := Table{
		ID:     "cluster",
		Title:  "cluster stencil through per-node delegate collectors (checksum-asserted)",
		Header: []string{"nodes", "threads", "vt", "msgs", "msg/node", "msg-base-vt", "checksum"},
	}
	run := func(cfg workload.ClusterConfig) (uint64, int64, kernel.NetStats) {
		var sum uint64
		var net kernel.NetStats
		res := core.Run(core.Options{
			Kernel:     kernel.Config{Nodes: cfg.Nodes, CPUsPerNode: 1, Cost: cost},
			SharedSize: workload.ClusterSharedBytes(cfg),
		}, func(rt *core.RT) uint64 {
			sum, net = workload.ClusterStencil(rt, cfg)
			return sum
		})
		if res.Status != kernel.StatusHalted {
			panic(fmt.Sprintf("bench: cluster n=%d: %v %v", cfg.Nodes, res.Status, res.Err))
		}
		return sum, res.VT, net
	}
	for _, nodes := range nodeSteps {
		threads := 4 * nodes
		cfg := workload.ClusterConfig{
			Nodes: nodes, Threads: threads,
			PagesPerThread: pages, Phases: phases,
		}
		sum, vt, net := run(cfg)
		if nodes > 1 {
			one := cfg
			one.Nodes = 1
			if oneSum, _, _ := run(one); oneSum != sum {
				panic(fmt.Sprintf("bench: cluster n=%d: checksum %#x != one-node %#x", nodes, sum, oneSum))
			}
		}
		assertConflictParity(nodes)
		baseVT := baseline.StencilDist(nodes, threads, pages, phases, cost)
		// A collection pass is one of the phases-1 barrier rounds or the
		// final join.
		t.AddRow(iv(int64(nodes)), iv(int64(threads)), iv(vt), iv(net.Msgs),
			f2(float64(net.Msgs)/float64(phases*nodes)),
			iv(baseVT), fmt.Sprintf("%08x", uint32(sum)))
	}
	t.Note("checksums and conflict bytes are asserted equal to the same program's on one node;")
	t.Note("msgs is the root's cross-node message count, msg/node the same per collection pass and node:")
	t.Note("one batched pre-merged delta per remote node instead of per-thread visits; msg-base-vt is the")
	t.Note("explicit message-passing program with the same cost constants and batch framing.")
	return t
}

// assertConflictParity plants one cross-node write/write conflict and
// requires the report to carry exactly the conflicting bytes of the same
// program run on one node. One node pins the later thread in
// node-then-thread order; a spanning run pins that thread's node.
func assertConflictParity(nodes int) {
	if nodes < 2 {
		return
	}
	grab := func(n int) *core.ConflictError {
		var out *core.ConflictError
		res := core.Run(core.Options{
			Kernel:     kernel.Config{Nodes: n, CPUsPerNode: 1},
			SharedSize: 4 << 20,
		}, func(rt *core.RT) uint64 {
			slot := rt.Alloc(8, 8)
			_, err := rt.ParallelDoOn(2*nodes, func(i int) int { return i % n }, func(th *core.Thread) uint64 {
				if th.ID == 0 || th.ID == 1 {
					th.Env().WriteU32(slot, uint32(100+th.ID))
				}
				return 0
			})
			ce, ok := err.(*core.ConflictError)
			if !ok {
				panic(fmt.Sprintf("bench: cluster conflict probe (nodes=%d): %v", n, err))
			}
			out = ce
			return 1
		})
		if res.Status != kernel.StatusHalted {
			panic(fmt.Sprintf("bench: cluster conflict probe: %v %v", res.Status, res.Err))
		}
		return out
	}
	one, spread := grab(1), grab(nodes)
	if one.Cause.Total != spread.Cause.Total ||
		len(one.Cause.Addrs) != len(spread.Cause.Addrs) {
		panic(fmt.Sprintf("bench: cluster n=%d: conflict reports differ: one node %v, spread %v",
			nodes, one.Cause, spread.Cause))
	}
	for i := range one.Cause.Addrs {
		if one.Cause.Addrs[i] != spread.Cause.Addrs[i] {
			panic(fmt.Sprintf("bench: cluster n=%d: conflict addr %d differs: %#x vs %#x",
				nodes, i, one.Cause.Addrs[i], spread.Cause.Addrs[i]))
		}
	}
}
