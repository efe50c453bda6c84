package workload

import (
	"repro/internal/core"
	"repro/internal/vm"
)

// Distributed variants of md5 and matmult for the cluster experiments
// (§6.3, Figures 11 and 12). All of them still program against the
// logically shared memory model — distribution happens purely through
// space migration, by forking threads whose home is another node.

// MD5Circuit distributes the search by the "travelling salesman" pattern
// of §6.3: the master migrates serially to each node to fork one worker,
// then retraces the same circuit to collect results. The serial circuit
// is the scaling bottleneck the paper observes.
func MD5Circuit(rt *core.RT, nodes, size int) uint64 {
	want := MD5Candidate(MD5Target(size))
	slots := rt.Alloc(uint64(8*nodes), 8)
	for nd := 0; nd < nodes; nd++ {
		nd := nd
		if err := rt.ForkOn(nd, nd, func(t *core.Thread) uint64 {
			lo, hi := stripe(size, nodes, nd)
			got := md5Scan(t.Env().Tick, uint64(lo), uint64(hi), want)
			t.Env().WriteU64(slots+vm.Addr(8*nd), got)
			return 0
		}); err != nil {
			panic(err)
		}
	}
	for nd := 0; nd < nodes; nd++ {
		if _, err := rt.JoinOn(nd, nd); err != nil {
			panic(err)
		}
	}
	var found uint64
	for nd := 0; nd < nodes; nd++ {
		if v := rt.Env().ReadU64(slots + vm.Addr(8*nd)); v != 0 {
			found = v - 1
		}
	}
	return found
}

// distTree recursively fans work out over the node range [lo, hi):
// the caller forks a subtree root on each half's first node, and each
// subtree root recurses until it owns a single node, where leaf runs.
// This is the md5-tree / matmult-tree distribution pattern of §6.3.
func distTree(f forker, lo, hi int, leaf func(t *core.Thread, node int)) {
	if hi-lo == 1 {
		panic("workload: distTree caller must handle single-node ranges")
	}
	mid := (lo + hi) / 2
	halves := [2][2]int{{lo, mid}, {mid, hi}}
	for c, h := range halves {
		c, h := c, h
		var err error
		if h[1]-h[0] == 1 {
			err = forkOnNode(f, h[0], c, func(t *core.Thread) uint64 {
				leaf(t, h[0])
				return 0
			})
		} else {
			err = forkOnNode(f, h[0], c, func(t *core.Thread) uint64 {
				distTree(thForker{t}, h[0], h[1], leaf)
				return 0
			})
		}
		if err != nil {
			panic(err)
		}
	}
	for c, h := range halves {
		if _, err := joinOnNode(f, h[0], c); err != nil {
			panic(err)
		}
	}
}

// forkOnNode/joinOnNode dispatch to the right runtime type.
func forkOnNode(f forker, node, id int, fn core.ThreadFunc) error {
	switch v := f.(type) {
	case rtForker:
		return v.rt.ForkOn(node, id, fn)
	case thForker:
		return v.th.ForkOn(node, id, fn)
	}
	panic("workload: unknown forker")
}

func joinOnNode(f forker, node, id int) (uint64, error) {
	switch v := f.(type) {
	case rtForker:
		return v.rt.JoinOn(node, id)
	case thForker:
		return v.th.JoinOn(node, id)
	}
	panic("workload: unknown forker")
}

// MD5Tree distributes the search by recursive binary fan-out across the
// cluster — the variant that scales in Figure 11.
func MD5Tree(rt *core.RT, nodes, size int) uint64 {
	want := MD5Candidate(MD5Target(size))
	slots := rt.Alloc(uint64(8*nodes), 8)
	leaf := func(t *core.Thread, node int) {
		lo, hi := stripe(size, nodes, node)
		got := md5Scan(t.Env().Tick, uint64(lo), uint64(hi), want)
		t.Env().WriteU64(slots+vm.Addr(8*node), got)
	}
	if nodes == 1 {
		if err := rt.Fork(0, func(t *core.Thread) uint64 { leaf(t, 0); return 0 }); err != nil {
			panic(err)
		}
		if _, err := rt.Join(0); err != nil {
			panic(err)
		}
	} else {
		distTree(rtForker{rt}, 0, nodes, leaf)
	}
	var found uint64
	for nd := 0; nd < nodes; nd++ {
		if v := rt.Env().ReadU64(slots + vm.Addr(8*nd)); v != 0 {
			found = v - 1
		}
	}
	return found
}

// MatmultTree distributes the matrix multiply with the same recursive
// work fan-out. Unlike md5, each leaf must demand-page both operand
// matrices across the wire, which is why Figure 11 shows it levelling
// off after a couple of nodes.
func MatmultTree(rt *core.RT, nodes, n int) uint64 {
	a, b, c := MatmultInit(rt, n)
	leaf := func(t *core.Thread, node int) {
		rlo, rhi := stripe(n, nodes, node)
		if rlo == rhi {
			return
		}
		env := t.Env()
		av := make([]uint32, (rhi-rlo)*n)
		env.ReadU32s(a+vm.Addr(4*rlo*n), av)
		bv := make([]uint32, n*n)
		env.ReadU32s(b, bv)
		out := matmultRows(av, bv, n, rlo, rhi, env.Tick)
		env.WriteU32s(c+vm.Addr(4*rlo*n), out)
	}
	if nodes == 1 {
		if err := rt.Fork(0, func(t *core.Thread) uint64 { leaf(t, 0); return 0 }); err != nil {
			panic(err)
		}
		if _, err := rt.Join(0); err != nil {
			panic(err)
		}
	} else {
		distTree(rtForker{rt}, 0, nodes, leaf)
	}
	cv := make([]uint32, n*n)
	rt.Env().ReadU32s(c, cv)
	return ChecksumU32(cv)
}
