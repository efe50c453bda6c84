package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// TestForkJoinNodeValidation: ForkOn/JoinOn must reject out-of-range
// node ids with a typed error instead of letting the child-reference
// encoding alias them. Before the fix, node -1 encoded to reference
// field 0 — the caller's home node — so ForkOn(-1, id) silently created
// (or JoinOn(-1, id) silently joined) a thread in the home namespace.
func TestForkJoinNodeValidation(t *testing.T) {
	cases := []struct {
		name string
		node int
		id   int
		want string // "badnode", "badid", "ok"
	}{
		{"negative-one-aliases-home", -1, 0, "badnode"},
		{"very-negative", -1000, 0, "badnode"},
		{"one-past-end", 3, 0, "badnode"},
		{"far-past-end", 99, 0, "badnode"},
		{"negative-id", 0, -1, "badid"},
		{"id-wraps-encoding", 0, kernel.MaxChildIndex - 1, "badid"},
		{"valid-first-node", 0, 0, "ok"},
		{"valid-last-node", 2, 7, "ok"},
	}
	res := Run(Options{
		Kernel:     kernel.Config{Nodes: 3},
		SharedSize: 4 << 20,
	}, func(rt *RT) uint64 {
		for _, c := range cases {
			ferr := rt.ForkOn(c.node, c.id, func(th *Thread) uint64 { return 7 })
			switch c.want {
			case "badnode":
				var bn *BadNodeError
				if !errors.As(ferr, &bn) {
					panic("fork " + c.name + ": no BadNodeError")
				}
				if bn.Node != c.node || bn.Nodes != 3 {
					panic("fork " + c.name + ": error fields wrong")
				}
				if _, jerr := rt.JoinOn(c.node, c.id); !errors.As(jerr, &bn) {
					panic("join " + c.name + ": no BadNodeError")
				}
			case "badid":
				if !errors.Is(ferr, ErrBadThreadID) {
					panic("fork " + c.name + ": no ErrBadThreadID")
				}
				if _, jerr := rt.JoinOn(c.node, c.id); !errors.Is(jerr, ErrBadThreadID) {
					panic("join " + c.name + ": no ErrBadThreadID")
				}
			case "ok":
				if ferr != nil {
					panic("fork " + c.name + ": unexpected error")
				}
				if v, jerr := rt.JoinOn(c.node, c.id); jerr != nil || v != 7 {
					panic("join " + c.name + ": failed")
				}
			}
		}
		// A rejected fork must not have created any thread in the home
		// namespace: joining home thread 0 fails with "no snapshot"
		// rather than returning the aliased thread's result... unless a
		// valid fork used id 0 on the home node, which none above did
		// (home is node 0 and the valid node-0 fork used id 0 — so check
		// a fresh id instead).
		if _, err := rt.Join(41); err == nil {
			panic("joining a never-forked thread succeeded")
		}
		return 1
	})
	if res.Status != kernel.StatusHalted || res.Ret != 1 {
		t.Fatalf("%v %v (ret %d)", res.Status, res.Err, res.Ret)
	}
}

// TestPlacementInvariance is the migration-placement property test:
// random ForkOn placements of the same data-parallel program across a
// fixed 4-node machine must yield checksums identical to the all-home
// placement and to a genuine single-node machine, with no conflicts,
// through RunPhasesOn and through the flat reference collector (tree.go's
// tests) — and every individual configuration must repeat
// bit-exactly, virtual time included. Virtual time across different
// placements legitimately differs (by the modeled wire costs); the
// all-home placement on the 4-node machine must match the single-node
// machine exactly, wire costs being zero either way.
func TestPlacementInvariance(t *testing.T) {
	const threads, phases = 6, 3
	run := func(nodes int, place func(i int) int, tree bool) (uint64, int64) {
		res := Run(Options{
			Kernel:     kernel.Config{Nodes: nodes, CPUsPerNode: 1},
			SharedSize: 4 << 20,
		}, func(rt *RT) uint64 {
			stripes := rt.AllocPages(threads)
			words := rt.Alloc(8*threads, 8)
			if err := runPhasesVia(!tree, rt, threads, phases, place, func(th *Thread, phase int) {
				env := th.Env()
				var carry uint64
				if phase > 0 {
					for i := 0; i < threads; i++ {
						carry += env.ReadU64(words + vm.Addr(8*i))
					}
				}
				base := stripes + vm.Addr(th.ID)*vm.PageSize
				for off := 0; off < vm.PageSize; off += 64 {
					env.WriteU64(base+vm.Addr(off), carry+uint64(th.ID*31+phase*7+off))
				}
				env.WriteU64(words+vm.Addr(8*th.ID), carry*13+uint64(th.ID+1)*uint64(phase+1))
			}); err != nil {
				panic(err)
			}
			env := rt.Env()
			var sig uint64
			for i := 0; i < threads; i++ {
				base := stripes + vm.Addr(i)*vm.PageSize
				for off := 0; off < vm.PageSize; off += 64 {
					sig = sig*1099511628211 + env.ReadU64(base+vm.Addr(off))
				}
				sig = sig*31 + env.ReadU64(words+vm.Addr(8*i))
			}
			return sig
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("nodes=%d tree=%v: %v %v", nodes, tree, res.Status, res.Err)
		}
		return res.Ret, res.VT
	}

	single, singleVT := run(1, nil, false)
	allHome, allHomeVT := run(4, func(int) int { return 0 }, false)
	if allHome != single {
		t.Fatalf("all-home placement on 4 nodes: checksum %#x != single-node %#x", allHome, single)
	}
	if allHomeVT != singleVT {
		t.Errorf("all-home placement on 4 nodes: VT %d != single-node %d (should pay no wire costs)",
			allHomeVT, singleVT)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		placement := make([]int, threads)
		for i := range placement {
			placement[i] = rng.Intn(4)
		}
		place := func(i int) int { return placement[i] }
		for _, tree := range []bool{false, true} {
			sum, vt := run(4, place, tree)
			if sum != single {
				t.Errorf("trial %d tree=%v placement %v: checksum %#x != single-node %#x",
					trial, tree, placement, sum, single)
			}
			sum2, vt2 := run(4, place, tree)
			if sum2 != sum || vt2 != vt {
				t.Errorf("trial %d tree=%v: rerun diverged (%#x/%d vs %#x/%d)",
					trial, tree, sum2, vt2, sum, vt)
			}
		}
	}
}
