package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Fig 11's and Fig 12's cells are ratios printed to two decimals, so a
// small drift in a multi-node virtual time never reaches the quick
// golden. This test pins the raw figures underneath them: each root's
// virtual time, result and traffic for the three distributed programs at
// quick size, on 2, 3 and 4 nodes, per page and batched.

type distPin struct {
	prog  string
	nodes int
	batch int
	vt    int64
	ret   uint64
	net   kernel.NetStats
}

var distPins = []distPin{
	{"md5-circuit", 2, 1, 1786343, 0xc00, kernel.NetStats{Msgs: 5, Pages: 2}},
	{"md5-circuit", 2, 64, 1786343, 0xc00, kernel.NetStats{Msgs: 5, Pages: 2}},
	{"md5-circuit", 3, 1, 1523000, 0xc00, kernel.NetStats{Msgs: 8, Pages: 3}},
	{"md5-circuit", 3, 64, 1523000, 0xc00, kernel.NetStats{Msgs: 8, Pages: 3}},
	{"md5-circuit", 4, 1, 1492217, 0xc00, kernel.NetStats{Msgs: 11, Pages: 4}},
	{"md5-circuit", 4, 64, 1492217, 0xc00, kernel.NetStats{Msgs: 11, Pages: 4}},
	{"md5-tree", 2, 1, 1786343, 0xc00, kernel.NetStats{Msgs: 5, Pages: 2}},
	{"md5-tree", 2, 64, 1786343, 0xc00, kernel.NetStats{Msgs: 5, Pages: 2}},
	{"md5-tree", 3, 1, 1526284, 0xc00, kernel.NetStats{Msgs: 5, Pages: 2}},
	{"md5-tree", 3, 64, 1526284, 0xc00, kernel.NetStats{Msgs: 5, Pages: 2}},
	{"md5-tree", 4, 1, 1388721, 0xc00, kernel.NetStats{Msgs: 6, Pages: 3}},
	{"md5-tree", 4, 64, 1388721, 0xc00, kernel.NetStats{Msgs: 6, Pages: 3}},
	{"matmult-tree", 2, 1, 1970628, 0x3fcd2e1a0defd4, kernel.NetStats{Msgs: 9, Pages: 6}},
	{"matmult-tree", 2, 64, 1745628, 0x3fcd2e1a0defd4, kernel.NetStats{Msgs: 5, Pages: 6}},
	{"matmult-tree", 3, 1, 2213956, 0x3fcd2e1a0defd4, kernel.NetStats{Msgs: 10, Pages: 7}},
	{"matmult-tree", 3, 64, 1938956, 0x3fcd2e1a0defd4, kernel.NetStats{Msgs: 5, Pages: 7}},
	{"matmult-tree", 4, 1, 1907960, 0x3fcd2e1a0defd4, kernel.NetStats{Msgs: 11, Pages: 8}},
	{"matmult-tree", 4, 64, 1707960, 0x3fcd2e1a0defd4, kernel.NetStats{Msgs: 6, Pages: 8}},
}

func TestDistributedVirtualTimesPinned(t *testing.T) {
	const mdSize, mmSize = 1 << 12, 64
	progs := map[string]struct {
		fn     distFn
		size   int
		shared uint64
	}{
		"md5-circuit":  {workload.MD5Circuit, mdSize, 1 << 20},
		"md5-tree":     {workload.MD5Tree, mdSize, 1 << 20},
		"matmult-tree": {workload.MatmultTree, mmSize, uint64(3*4*mmSize*mmSize) + (8 << 20)},
	}
	for _, want := range distPins {
		p := progs[want.prog]
		cost := kernel.DefaultCostModel()
		cost.BatchPages = want.batch
		res := core.Run(core.Options{
			Kernel:     kernel.Config{Nodes: want.nodes, CPUsPerNode: 1, Cost: cost},
			SharedSize: p.shared,
		}, func(rt *core.RT) uint64 { return p.fn(rt, want.nodes, p.size) })
		if res.Status != kernel.StatusHalted {
			t.Fatalf("%s on %d nodes at cap %d: %v: %v", want.prog, want.nodes, want.batch, res.Status, res.Err)
		}
		if got := (distPin{want.prog, want.nodes, want.batch, res.VT, res.Ret, res.Net}); got != want {
			t.Errorf("got %+v, pinned %+v", got, want)
		}
	}
}

// ROCache's master holds its reference table on its home node from
// birth, so the cached run ships the table once to each other node and
// never home again: 64·(nodes−1) pages. The uncached placement visits
// laps×nodes nodes once each and ships it to every one but home.
func TestROCacheMasterShipsTableOncePerNode(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		if got, want := rocacheRun(nodes, false).Net.Pages, int64(rocacheRefPages*(nodes-1)); got != want {
			t.Errorf("cached, %d nodes: master shipped %d pages, want %d", nodes, got, want)
		}
		if got, want := rocacheRun(nodes, true).Net.Pages, int64(rocacheRefPages*(rocacheLaps*nodes-1)); got != want {
			t.Errorf("uncached, %d nodes: master shipped %d pages, want %d", nodes, got, want)
		}
	}
}
