package core

import (
	"cmp"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Tests for the delegate collectors: a collection spanning nodes must
// produce bit-identical results, conflict bytes and errors to the flat
// reference below at every node count and GOMAXPROCS, while cutting the
// root's cross-node message count from O(threads) to O(nodes).

// flatOrder returns threads 0..n-1 in node-then-thread order.
func flatOrder(n int, place func(i int) int) []int {
	order := ids(n)
	if place != nil {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(place(a), place(b)) })
	}
	return order
}

// flatFork forks threads 0..n-1 with ForkOn (Fork for a nil place).
func flatFork(rt *RT, n int, place func(i int) int, fn ThreadFunc) error {
	for i := 0; i < n; i++ {
		var err error
		if place == nil {
			err = rt.Fork(i, fn)
		} else {
			err = rt.ForkOn(place(i), i, fn)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// flatJoin joins every listed thread with Join, past errors, storing
// each result in res (when non-nil) and returning the first error.
func flatJoin(rt *RT, order []int, res []uint64) error {
	var first error
	for _, id := range order {
		v, err := rt.Join(id)
		if res != nil {
			res[id] = v
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flatParallelDoOn is the reference ParallelDoOn: the caller forks and
// joins every thread itself, in node-then-thread order, whatever the
// placement.
func flatParallelDoOn(rt *RT, n int, place func(i int) int, fn ThreadFunc) ([]uint64, error) {
	if err := flatFork(rt, n, place, fn); err != nil {
		return nil, err
	}
	res := make([]uint64, n)
	return res, flatJoin(rt, flatOrder(n, place), res)
}

// flatBarrier is the reference barrier round: the caller collects every
// listed thread itself, wherever it runs, strictly in list order with the
// barrier's park stop, then resyncs the parked threads with the combined
// state. A thread that halted instead of reaching the barrier stays
// halted; its final merge still occurs. The first error ends the round.
func flatBarrier(rt *RT, order []int) error {
	rt.parked = rt.parked[:0]
	if err := rt.Collect(order, Policy{}, rt.park); err != nil {
		return err
	}
	return rt.resync()
}

// flatRunPhasesOn is the reference RunPhasesOn: ForkOn, one flatBarrier
// per phase boundary and a Join of every thread, all by the caller.
func flatRunPhasesOn(rt *RT, n, phases int, place func(i int) int, fn func(t *Thread, phase int)) error {
	if err := flatFork(rt, n, place, func(t *Thread) uint64 {
		for p := 0; p < phases; p++ {
			fn(t, p)
			if p < phases-1 {
				t.Barrier()
			}
		}
		return 0
	}); err != nil {
		return err
	}
	order := flatOrder(n, place)
	for p := 0; p < phases-1; p++ {
		if err := flatBarrier(rt, order); err != nil {
			return err
		}
	}
	return flatJoin(rt, order, nil)
}

// runPhasesVia runs RunPhasesOn, or the flat reference when flat is set.
func runPhasesVia(flat bool, rt *RT, n, phases int, place func(i int) int, fn func(t *Thread, phase int)) error {
	if flat {
		return flatRunPhasesOn(rt, n, phases, place, fn)
	}
	return rt.RunPhasesOn(n, phases, place, fn)
}

// parallelDoVia runs ParallelDoOn, or the flat reference when flat is set.
func parallelDoVia(flat bool, rt *RT, n int, place func(i int) int, fn ThreadFunc) ([]uint64, error) {
	if flat {
		return flatParallelDoOn(rt, n, place, fn)
	}
	return rt.ParallelDoOn(n, place, fn)
}

// clusterOutcome captures everything a collection mode promises to keep
// (or deliberately not keep) invariant.
type clusterOutcome struct {
	ret  uint64
	vt   int64
	msgs int64
	ok   bool
}

// runPlaced executes a data-parallel workload — disjoint page stripes
// plus disjoint words on one shared page, with cross-thread dataflow
// through barrier rounds — on an n-node machine with threads placed in
// blocks, and returns the workload checksum. tree selects RunPhasesOn,
// whose collector delegates a spanning placement; otherwise the flat
// reference runs.
func runPlaced(t *testing.T, nodes, threads, phases int, tree bool) clusterOutcome {
	t.Helper()
	res := Run(Options{
		Kernel:     kernel.Config{Nodes: nodes, CPUsPerNode: 1},
		SharedSize: 4 << 20,
	}, func(rt *RT) uint64 {
		stripes := rt.AllocPages(threads)
		words := rt.Alloc(uint64(8*threads), 8)
		// Blocked placement: each node owns a contiguous band of thread
		// stripes, the layout real data-parallel decompositions use (and
		// the one batched runs reward).
		place := func(i int) int { return i * nodes / threads }
		if err := runPhasesVia(!tree, rt, threads, phases, place, func(th *Thread, phase int) {
			env := th.Env()
			// Read the previous phase's combined shared words (dataflow
			// through the barrier merge), then write this thread's page
			// stripe and word.
			var carry uint64
			if phase > 0 {
				for i := 0; i < threads; i++ {
					carry += env.ReadU64(words + vm.Addr(8*i))
				}
			}
			base := stripes + vm.Addr(th.ID)*vm.PageSize
			for off := 0; off < vm.PageSize; off += 8 {
				env.WriteU64(base+vm.Addr(off), carry+uint64(th.ID*100003+phase*17+off))
			}
			env.WriteU64(words+vm.Addr(8*th.ID), carry*31+uint64(th.ID+1)*uint64(phase+1))
		}); err != nil {
			panic(err)
		}
		env := rt.Env()
		var sig uint64
		for i := 0; i < threads; i++ {
			base := stripes + vm.Addr(i)*vm.PageSize
			for off := 0; off < vm.PageSize; off += 8 {
				sig = sig*1099511628211 + env.ReadU64(base+vm.Addr(off))
			}
			sig = sig*31 + env.ReadU64(words+vm.Addr(8*i))
		}
		// Fold in the root's message count so callers can read it out;
		// it is reported separately to keep the checksum comparable.
		return sig
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("nodes=%d tree=%v: %v %v", nodes, tree, res.Status, res.Err)
	}
	return clusterOutcome{ret: res.Ret, vt: res.VT, msgs: res.Net.Msgs, ok: true}
}

func TestTreeCollectorMatchesFlat(t *testing.T) {
	const threads, phases = 8, 3
	for _, nodes := range []int{1, 2, 4} {
		var flat, tree clusterOutcome
		eachGOMAXPROCS(t, func(procs int) {
			f := runPlaced(t, nodes, threads, phases, false)
			tr := runPlaced(t, nodes, threads, phases, true)
			if !flat.ok {
				flat, tree = f, tr
			}
			if f.ret != flat.ret || f.vt != flat.vt {
				t.Errorf("nodes=%d GOMAXPROCS=%d: flat outcome (%#x, %d) varies with GOMAXPROCS (%#x, %d)",
					nodes, procs, f.ret, f.vt, flat.ret, flat.vt)
			}
			if tr.ret != flat.ret {
				t.Errorf("nodes=%d GOMAXPROCS=%d: tree checksum %#x != flat %#x",
					nodes, procs, tr.ret, flat.ret)
			}
			// Both modes must repeat exactly, including virtual time.
			if tr.vt != tree.vt {
				t.Errorf("nodes=%d: tree VT differs across GOMAXPROCS/reruns", nodes)
			}
		})
	}
}

func TestTreeCollectorCutsRootMessages(t *testing.T) {
	// With 16 threads blocked across 4 nodes over several barrier
	// rounds, the flat collector's cross-node message count scales with
	// threads (it migrates to and merges every remote thread itself,
	// shipping each thread's delta separately); the tree's scales with
	// nodes — each delegate's pre-merged, node-contiguous delta ships as
	// a couple of batched runs.
	const nodes, threads, phases = 4, 16, 4
	flat := runPlaced(t, nodes, threads, phases, false)
	tree := runPlaced(t, nodes, threads, phases, true)
	if tree.ret != flat.ret {
		t.Fatalf("checksums diverged: tree %#x, flat %#x", tree.ret, flat.ret)
	}
	if tree.msgs >= flat.msgs {
		t.Errorf("tree root messages %d not below flat %d", tree.msgs, flat.msgs)
	}
	// The root should talk to each node a bounded number of times per
	// round, independent of the threads behind it.
	perRound := float64(tree.msgs) / float64(phases)
	if perRound > float64(8*nodes) {
		t.Errorf("tree root sends %.1f msgs/round for %d nodes: not O(nodes)", perRound, nodes)
	}
	if tree.vt >= flat.vt {
		t.Errorf("tree VT %d not below flat VT %d", tree.vt, flat.vt)
	}
}

func TestTreeConflictBytesMatchFlat(t *testing.T) {
	// A cross-node write/write conflict: thread 2 (node 0) and thread 1
	// (node 1) write the same word. In node-then-thread order thread 2
	// commits first, so the flat collector attributes the conflict to
	// thread 1 and the tree to node 1. The conflicting byte addresses
	// and totals must be identical.
	conflictFrom := func(tree bool) *ConflictError {
		var out *ConflictError
		res := Run(Options{
			Kernel:     kernel.Config{Nodes: 2, CPUsPerNode: 1},
			SharedSize: 4 << 20,
		}, func(rt *RT) uint64 {
			slot := rt.Alloc(8, 8)
			_, err := parallelDoVia(!tree, rt, 4, func(i int) int { return i % 2 }, func(th *Thread) uint64 {
				if th.ID == 1 || th.ID == 2 {
					th.Env().WriteU32(slot, uint32(100+th.ID))
				}
				return 0
			})
			if err == nil {
				panic("conflict not detected")
			}
			ce, ok := err.(*ConflictError)
			if !ok {
				panic(err)
			}
			out = ce
			return 1
		})
		if res.Status != kernel.StatusHalted || res.Ret != 1 {
			t.Fatalf("tree=%v: %v %v", tree, res.Status, res.Err)
		}
		return out
	}
	flat := conflictFrom(false)
	tree := conflictFrom(true)
	if flat.ThreadID != 1 {
		t.Errorf("flat conflict attributed to thread %d, want 1", flat.ThreadID)
	}
	if tree.ThreadID != -1 || tree.Node != 1 {
		t.Errorf("tree conflict attribution (thread %d, node %d), want (-1, 1)",
			tree.ThreadID, tree.Node)
	}
	if flat.Cause.Total != tree.Cause.Total {
		t.Errorf("conflict totals differ: flat %d, tree %d", flat.Cause.Total, tree.Cause.Total)
	}
	if len(flat.Cause.Addrs) != len(tree.Cause.Addrs) {
		t.Fatalf("conflict addr lists differ in length: %v vs %v", flat.Cause.Addrs, tree.Cause.Addrs)
	}
	for i := range flat.Cause.Addrs {
		if flat.Cause.Addrs[i] != tree.Cause.Addrs[i] {
			t.Errorf("conflict addr %d differs: %#x vs %#x", i, flat.Cause.Addrs[i], tree.Cause.Addrs[i])
		}
	}
}

func TestTreeIntraNodeConflictKeepsThreadAttribution(t *testing.T) {
	// Both conflicting threads live on node 1: the delegate detects the
	// conflict during its local thread-order merges, so the report names
	// the exact thread, as the flat collector would.
	res := Run(Options{
		Kernel:     kernel.Config{Nodes: 2, CPUsPerNode: 1},
		SharedSize: 4 << 20,
	}, func(rt *RT) uint64 {
		slot := rt.Alloc(8, 8)
		_, err := rt.ParallelDoOn(4, func(i int) int { return i % 2 }, func(th *Thread) uint64 {
			if th.ID == 1 || th.ID == 3 {
				th.Env().WriteU32(slot, uint32(200+th.ID))
			}
			return 0
		})
		var ce *ConflictError
		if !errors.As(err, &ce) {
			panic(err)
		}
		if ce.ThreadID != 3 {
			panic("intra-node conflict not attributed to thread 3")
		}
		return 1
	})
	if res.Status != kernel.StatusHalted || res.Ret != 1 {
		t.Fatalf("%v %v", res.Status, res.Err)
	}
}

func TestTreeEarlyExitThreadMatchesFlat(t *testing.T) {
	// A thread that halts before ever reaching the barrier: its delta
	// must be merged exactly once. The barrier collect the caller and
	// every delegate run refreshes a halted thread's snapshot right after
	// merging it; without that, the next collect re-merges the stale
	// delta (a false conflict when another thread later writes the same
	// bytes). The tree run drives RunPhasesOn's spanning collection by
	// hand, since no phase body can halt its thread early.
	run := func(tree bool) (uint64, error) {
		var out error
		res := Run(Options{
			Kernel:     kernel.Config{Nodes: 2, CPUsPerNode: 1},
			SharedSize: 4 << 20,
		}, func(rt *RT) uint64 {
			slot := rt.Alloc(8, 8)
			other := rt.Alloc(8*4, 8)
			body := func(th *Thread) uint64 {
				if th.ID == 1 {
					th.Env().WriteU64(slot, 1)
					return 1 // exits before the barrier
				}
				th.Env().WriteU64(other+vm.Addr(8*th.ID), uint64(th.ID)+1)
				th.Barrier()
				if th.ID == 0 {
					th.Env().WriteU64(slot, 2) // rewrites thread 1's byte post-barrier
				}
				return uint64(th.ID)
			}
			place := func(i int) int { return i % 2 }
			if tree {
				nodes, groups, span, err := rt.forkAll(4, place, body)
				if err != nil || !span {
					panic(err)
				}
				if err := rt.barrierAll(nodes, groups, span); err != nil {
					panic(err)
				}
				out = rt.collectAll(nodes, groups, span, func(int, uint64) {})
			} else {
				if err := flatFork(rt, 4, place, body); err != nil {
					panic(err)
				}
				if err := flatBarrier(rt, flatOrder(4, place)); err != nil {
					panic(err)
				}
				out = flatJoin(rt, flatOrder(4, place), nil)
			}
			return rt.Env().ReadU64(slot)
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("tree=%v: %v %v", tree, res.Status, res.Err)
		}
		return res.Ret, out
	}
	flatVal, flatErr := run(false)
	treeVal, treeErr := run(true)
	if flatErr != nil {
		t.Fatalf("flat collector errored: %v", flatErr)
	}
	if treeErr != nil {
		t.Fatalf("tree collector errored where flat did not: %v", treeErr)
	}
	if flatVal != 2 || treeVal != flatVal {
		t.Errorf("final slot value: flat %d, tree %d, want 2 in both", flatVal, treeVal)
	}
}

func TestTreeThreadCrashPropagates(t *testing.T) {
	res := Run(Options{
		Kernel:     kernel.Config{Nodes: 2, CPUsPerNode: 1},
		SharedSize: 4 << 20,
	}, func(rt *RT) uint64 {
		_, err := rt.ParallelDoOn(4, func(i int) int { return i % 2 }, func(th *Thread) uint64 {
			if th.ID == 2 {
				panic("thread 2 dies")
			}
			return uint64(th.ID)
		})
		var tc *ThreadCrashError
		if !errors.As(err, &tc) || tc.ThreadID != 2 {
			panic(err)
		}
		return 1
	})
	if res.Status != kernel.StatusHalted || res.Ret != 1 {
		t.Fatalf("%v %v", res.Status, res.Err)
	}
}

// TestOneNodeCollectionIsDirect: a collection confined to one node, the
// caller's own or a remote one, has nothing to pipeline, so it starts no
// delegate and costs exactly what the flat reference costs.
func TestOneNodeCollectionIsDirect(t *testing.T) {
	type outcome struct {
		ret uint64
		vt  int64
	}
	run := func(flat, phased bool, node int) outcome {
		res := Run(Options{
			Kernel:     kernel.Config{Nodes: 2, CPUsPerNode: 2},
			SharedSize: 4 << 20,
		}, func(rt *RT) uint64 {
			w := rt.Alloc(8*4, 8)
			place := func(int) int { return node }
			var sum uint64
			if phased {
				if err := runPhasesVia(flat, rt, 4, 3, place, func(th *Thread, phase int) {
					a := w + vm.Addr(8*th.ID)
					th.Env().WriteU64(a, th.Env().ReadU64(a)*10+uint64(phase+1))
				}); err != nil {
					panic(err)
				}
			} else {
				rets, err := parallelDoVia(flat, rt, 4, place, func(th *Thread) uint64 {
					th.Env().WriteU64(w+vm.Addr(8*th.ID), uint64(th.ID)+1)
					return uint64(th.ID) * 3
				})
				if err != nil {
					panic(err)
				}
				for _, r := range rets {
					sum = sum*31 + r
				}
			}
			if len(rt.DelegateRefs()) != 0 {
				panic("a one-node collection started a delegate")
			}
			for i := 0; i < 4; i++ {
				sum = sum*131 + rt.Env().ReadU64(w+vm.Addr(8*i))
			}
			return sum
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("flat=%v phased=%v node=%d: %v %v", flat, phased, node, res.Status, res.Err)
		}
		return outcome{res.Ret, res.VT}
	}
	for _, phased := range []bool{false, true} {
		for _, node := range []int{0, 1} {
			got, want := run(false, phased, node), run(true, phased, node)
			if got != want {
				t.Errorf("phased=%v node=%d: (%#x, %d VT), flat reference (%#x, %d VT)",
					phased, node, got.ret, got.vt, want.ret, want.vt)
			}
		}
	}
}

// TestFailedRoundStopsDelegates: a barrier round that fails on the
// caller's own node must rendezvous with every delegate it started, and
// a delegate must drop the threads that round left parked, before the
// next collection writes its mailbox. A phase-0 conflict between
// threads 0 and 1 (both on node 0) fails the first round while node 1's
// delegate is still collecting threads 2 and 3; a ParallelDoOn over
// both nodes follows. The run must leave the flat reference's memory
// and repeat exactly — virtual time included — across reruns and
// GOMAXPROCS, and the race detector must stay silent.
func TestFailedRoundStopsDelegates(t *testing.T) {
	const threads = 4
	run := func(flat bool) (uint64, int64) {
		res := Run(Options{
			Kernel:     kernel.Config{Nodes: 2, CPUsPerNode: 1},
			SharedSize: 4 << 20,
		}, func(rt *RT) uint64 {
			w := rt.Alloc(8*threads, 8)
			slot := rt.Alloc(8, 8)
			place := func(i int) int { return i * 2 / threads }
			err := runPhasesVia(flat, rt, threads, 3, place, func(th *Thread, phase int) {
				if phase == 0 && th.ID < 2 {
					th.Env().WriteU64(slot, uint64(th.ID)+1)
				}
				a := w + vm.Addr(8*th.ID)
				th.Env().WriteU64(a, th.Env().ReadU64(a)*10+uint64(phase+1))
			})
			var ce *ConflictError
			if !errors.As(err, &ce) || ce.ThreadID != 1 {
				panic(err)
			}
			rets, err := parallelDoVia(flat, rt, threads, place, func(th *Thread) uint64 {
				a := w + vm.Addr(8*th.ID)
				th.Env().WriteU64(a, th.Env().ReadU64(a)+100)
				return uint64(th.ID) + 7
			})
			if err != nil {
				panic(err)
			}
			var sum uint64
			for i, r := range rets {
				sum = sum*31 + r
				sum = sum*131 + rt.Env().ReadU64(w+vm.Addr(8*i))
			}
			return sum*131 + rt.Env().ReadU64(slot)
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("flat=%v: %v %v", flat, res.Status, res.Err)
		}
		return res.Ret, res.VT
	}
	want, _ := run(true)
	def := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	var vt0 int64
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 30; i++ {
			got, vt := run(false)
			if got != want {
				t.Fatalf("GOMAXPROCS=%d run %d: result %#x, flat reference %#x", procs, i, got, want)
			}
			if vt0 == 0 {
				vt0 = vt
			}
			if vt != vt0 {
				t.Fatalf("GOMAXPROCS=%d run %d: root VT %d, first run %d", procs, i, vt, vt0)
			}
		}
	}
}
