package core

import (
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Tests for the one barrier protocol the caller and every delegate run:
// a barrier is one merging Get and one Put{Copy, Snap, Start} per
// thread, and a join collects every thread even past an error, so a
// delegated collection and the flat reference leave the same memory
// whatever a thread does.

// TestLastPhaseCrashMatchesAcrossCollectors crashes thread 0 in the last
// phase of RunPhasesOn. The final join must still merge threads 1–3 in
// both collectors and report the crash as thread 0's.
func TestLastPhaseCrashMatchesAcrossCollectors(t *testing.T) {
	const nodes, threads, phases = 2, 4, 3
	run := func(tree bool) ([]uint64, error) {
		var words []uint64
		var out error
		res := Run(Options{
			Kernel:     kernel.Config{Nodes: nodes, CPUsPerNode: 1},
			SharedSize: 4 << 20,
		}, func(rt *RT) uint64 {
			w := rt.Alloc(8*threads, 8)
			place := func(i int) int { return i * nodes / threads }
			out = runPhasesVia(!tree, rt, threads, phases, place, func(th *Thread, phase int) {
				if th.ID == 0 && phase == phases-1 {
					panic("thread 0 dies in its last phase")
				}
				a := w + vm.Addr(8*th.ID)
				env := th.Env()
				env.WriteU64(a, env.ReadU64(a)*10+uint64(phase+1))
			})
			for i := 0; i < threads; i++ {
				words = append(words, rt.Env().ReadU64(w+vm.Addr(8*i)))
			}
			return 0
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("tree=%v: %v %v", tree, res.Status, res.Err)
		}
		return words, out
	}
	flatWords, flatErr := run(false)
	treeWords, treeErr := run(true)
	for name, err := range map[string]error{"flat": flatErr, "tree": treeErr} {
		var tc *ThreadCrashError
		if !errors.As(err, &tc) || tc.ThreadID != 0 {
			t.Errorf("%s collector returned %v, want a crash of thread 0", name, err)
		}
	}
	for i := range flatWords {
		if flatWords[i] != treeWords[i] {
			t.Errorf("word %d: flat %d, tree %d", i, flatWords[i], treeWords[i])
		}
	}
	if want := uint64(123); treeWords[threads-1] != want {
		t.Errorf("thread %d's word %d, want %d: its last phase was not merged",
			threads-1, treeWords[threads-1], want)
	}
}

// TestBarrierKernelCallsPinned pins what a barrier costs the root with
// four no-op threads. On one node the caller collects them itself: an
// extra phase is one merging Get and one Put per thread (4 × 2
// syscalls). Spread over two nodes, the remote pair goes through node
// 1's delegate: an extra phase adds the delegate's dispatch, its commit
// (one merging Get) and the delegate's own Get and Put per thread. A
// status re-read, a split Put in collect or resync, or a commit that
// re-snapshots the delegate moves these.
func TestBarrierKernelCallsPinned(t *testing.T) {
	vtFor := func(nodes, phases int) int64 {
		res := Run(Options{
			Kernel:     kernel.Config{Nodes: nodes, CPUsPerNode: 4},
			SharedSize: 4 << 20,
		}, func(rt *RT) uint64 {
			place := func(i int) int { return i * nodes / 4 }
			if err := rt.RunPhasesOn(4, phases, place, func(*Thread, int) {}); err != nil {
				panic(err)
			}
			return 0
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("nodes=%d phases=%d: %v %v", nodes, phases, res.Status, res.Err)
		}
		return res.VT
	}
	for _, c := range []struct {
		nodes         int
		one, perPhase int64
	}{{1, 17_200, 16_000}, {2, 321_500, 412_000}} {
		one, two, three := vtFor(c.nodes, 1), vtFor(c.nodes, 2), vtFor(c.nodes, 3)
		if one != c.one {
			t.Errorf("nodes=%d: one-phase run %d VT, want %d", c.nodes, one, c.one)
		}
		if two-one != c.perPhase || three-two != c.perPhase {
			t.Errorf("nodes=%d: phases cost %d then %d VT, want %d each",
				c.nodes, two-one, three-two, c.perPhase)
		}
	}
}
