package core

import (
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Tests for the one barrier protocol both collectors run: a barrier is
// one merging Get and one Put{Copy, Snap, Start} per thread, and a join
// collects every thread even past an error, so the flat collector and
// the tree's delegates leave the same memory whatever a thread does.

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
			TreeJoin:   tree,
		}, func(rt *RT) uint64 {
			w := rt.Alloc(8*threads, 8)
			place := func(i int) int { return i * nodes / threads }
			out = rt.RunPhasesOn(threads, phases, place, func(th *Thread, phase int) {
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

// TestBarrierKernelCallsPinned pins what a barrier costs the root on one
// node with four no-op threads: the flat collector's extra phase is one
// merging Get and one Put per thread (4 × 2 syscalls), the tree's is its
// delegate dispatch and commit plus the delegate's own calls, and a
// one-phase tree run pays no snapshot refresh for the halted threads it
// joins. A status re-read or a split Put in the barrier moves these.
func TestBarrierKernelCallsPinned(t *testing.T) {
	vtFor := func(tree bool, phases int) int64 {
		res := Run(Options{
			Kernel:     kernel.Config{CPUsPerNode: 4},
			SharedSize: 4 << 20,
			TreeJoin:   tree,
		}, func(rt *RT) uint64 {
			if err := rt.RunPhases(4, phases, func(*Thread, int) {}); err != nil {
				panic(err)
			}
			return 0
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("tree=%v phases=%d: %v %v", tree, phases, res.Status, res.Err)
		}
		return res.VT
	}
	for _, c := range []struct {
		tree     bool
		perPhase int64
	}{{false, 16_000}, {true, 22_000}} {
		one, two, three := vtFor(c.tree, 1), vtFor(c.tree, 2), vtFor(c.tree, 3)
		if two-one != c.perPhase || three-two != c.perPhase {
			t.Errorf("tree=%v: phases cost %d then %d VT, want %d each",
				c.tree, two-one, three-two, c.perPhase)
		}
	}
	if got := vtFor(true, 1); got != 27_500 {
		t.Errorf("one-phase tree run: %d VT, want 27500", got)
	}
}
