package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Cluster sweeps the sharded cross-node barrier tree against the flat
// single-collector protocol on growing clusters: the stencil workload
// at nodes × {flat, tree}, every cell checksum-asserted. Two claims are
// enforced, not just reported:
//
//   - bit-identical results: checksums are equal across node counts and
//     collector modes, and deliberate write/write conflicts report
//     identical byte addresses and totals in both modes (the flat
//     collector pins the thread, the tree the node);
//   - traffic: the root collector's cross-node message count drops from
//     O(threads) per round (flat: visit and merge every remote thread)
//     to O(nodes) per round (tree: one batched pre-merged delta per
//     node), and the tree's virtual time beats the flat collector's on
//     every multi-node row.
//
// The msg-base column is the explicit message-passing program over the
// same cost constants — with the same per-batch framing — the fairness
// bound the tree works toward.
func Cluster(o Options) Table {
	nodeSteps := []int{1, 2, 4, 8}
	pages, phases := 4, 4
	if o.Quick {
		nodeSteps = []int{1, 2, 4}
		pages, phases = 2, 3
	}
	cost := kernel.DefaultCostModel()

	t := Table{
		ID:    "cluster",
		Title: "sharded barrier tree vs flat collector (checksum-asserted)",
		Header: []string{"nodes", "threads", "flat-vt", "tree-vt", "vt-speedup",
			"flat-msgs", "tree-msgs", "msgs", "flat-msg/thr", "tree-msg/node", "msg-base-vt", "checksum"},
	}
	for _, nodes := range nodeSteps {
		threads := 4 * nodes
		cfg := workload.ClusterConfig{
			Nodes: nodes, Threads: threads,
			PagesPerThread: pages, Phases: phases,
		}
		type cell struct {
			sum uint64
			vt  int64
			net kernel.NetStats
		}
		run := func(tree bool) cell {
			c := cfg
			c.Tree = tree
			var sum uint64
			var net kernel.NetStats
			res := core.Run(core.Options{
				Kernel:     kernel.Config{Nodes: nodes, CPUsPerNode: 1, Cost: cost},
				SharedSize: workload.ClusterSharedBytes(c),
			}, func(rt *core.RT) uint64 {
				sum, net = workload.ClusterStencil(rt, c)
				return sum
			})
			if res.Status != kernel.StatusHalted {
				panic(fmt.Sprintf("bench: cluster n=%d tree=%v: %v %v", nodes, tree, res.Status, res.Err))
			}
			return cell{sum: sum, vt: res.VT, net: net}
		}
		flat, tree := run(false), run(true)
		if flat.sum != tree.sum {
			panic(fmt.Sprintf("bench: cluster n=%d: tree checksum %#x != flat %#x",
				nodes, tree.sum, flat.sum))
		}
		if nodes > 1 {
			if tree.vt >= flat.vt {
				panic(fmt.Sprintf("bench: cluster n=%d: tree VT %d not below flat %d",
					nodes, tree.vt, flat.vt))
			}
			// O(threads) vs O(nodes): per collection pass (phases barrier
			// rounds plus the final join) the flat root performs at least
			// one cross-node interaction per thread; the tree root a
			// bounded few per node.
			passes := int64(phases)
			if flat.net.Msgs < passes*int64(threads) {
				panic(fmt.Sprintf("bench: cluster n=%d: flat root sent %d msgs, below O(threads) floor %d",
					nodes, flat.net.Msgs, passes*int64(threads)))
			}
			if tree.net.Msgs >= flat.net.Msgs {
				panic(fmt.Sprintf("bench: cluster n=%d: tree root msgs %d not below flat %d",
					nodes, tree.net.Msgs, flat.net.Msgs))
			}
		}
		assertConflictParity(nodes)
		baseVT := baseline.StencilDist(nodes, threads, pages, phases, cost)
		msgRatio := "-"
		if flat.net.Msgs > 0 {
			msgRatio = f2(float64(tree.net.Msgs) / float64(flat.net.Msgs))
		}
		// Normalized traffic: per collection pass (phases-1 barrier
		// rounds plus the final join), the flat collector's messages
		// grow per thread, the tree's per node — the O(threads) →
		// O(nodes) drop, visible as two near-constant columns.
		passes := float64(phases)
		t.AddRow(iv(int64(nodes)), iv(int64(threads)),
			iv(flat.vt), iv(tree.vt), f2(float64(flat.vt)/float64(tree.vt)),
			iv(flat.net.Msgs), iv(tree.net.Msgs), msgRatio,
			f2(float64(flat.net.Msgs)/(passes*float64(threads))),
			f2(float64(tree.net.Msgs)/(passes*float64(nodes))),
			iv(baseVT), fmt.Sprintf("%08x", uint32(flat.sum)))
	}
	t.Note("every row runs flat and tree; checksums and conflict bytes are asserted equal between them;")
	t.Note("msgs is the root collector's cross-node message ratio (tree/flat): per-node batched deltas")
	t.Note("instead of per-thread visits; msg-base-vt is the explicit message-passing program with the")
	t.Note("same cost constants and batch framing (the traffic shape the tree approaches).")
	return t
}

// assertConflictParity plants one cross-node write/write conflict and
// requires the flat and tree collectors to report exactly the same
// conflicting bytes. Flat pins the later thread in node-then-thread
// order; the tree pins that thread's node.
func assertConflictParity(nodes int) {
	if nodes < 2 {
		return
	}
	grab := func(tree bool) *core.ConflictError {
		var out *core.ConflictError
		res := core.Run(core.Options{
			Kernel:     kernel.Config{Nodes: nodes, CPUsPerNode: 1},
			SharedSize: 4 << 20,
			TreeJoin:   tree,
		}, func(rt *core.RT) uint64 {
			slot := rt.Alloc(8, 8)
			_, err := rt.ParallelDoOn(2*nodes, func(i int) int { return i % nodes }, func(th *core.Thread) uint64 {
				if th.ID == 0 || th.ID == 1 {
					th.Env().WriteU32(slot, uint32(100+th.ID))
				}
				return 0
			})
			ce, ok := err.(*core.ConflictError)
			if !ok {
				panic(fmt.Sprintf("bench: cluster conflict probe (tree=%v): %v", tree, err))
			}
			out = ce
			return 1
		})
		if res.Status != kernel.StatusHalted {
			panic(fmt.Sprintf("bench: cluster conflict probe: %v %v", res.Status, res.Err))
		}
		return out
	}
	flat, tree := grab(false), grab(true)
	if flat.Cause.Total != tree.Cause.Total ||
		len(flat.Cause.Addrs) != len(tree.Cause.Addrs) {
		panic(fmt.Sprintf("bench: cluster n=%d: conflict reports differ: flat %v tree %v",
			nodes, flat.Cause, tree.Cause))
	}
	for i := range flat.Cause.Addrs {
		if flat.Cause.Addrs[i] != tree.Cause.Addrs[i] {
			panic(fmt.Sprintf("bench: cluster n=%d: conflict addr %d differs: %#x vs %#x",
				nodes, i, flat.Cause.Addrs[i], tree.Cause.Addrs[i]))
		}
	}
}
