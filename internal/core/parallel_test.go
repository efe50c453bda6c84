package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Tests for the collection path: ParallelDo and barrier rounds must report
// identical results, virtual times, and errors however the host schedules
// the spaces' goroutines — the only host concurrency there is — and
// across repeated runs. (The test names predate the deletion of the
// kernel's merge-worker knob, which these tests proved invisible.)

// eachGOMAXPROCS calls run with the Go scheduler pinned to one OS thread
// and then at the process default, and restores the default afterwards.
func eachGOMAXPROCS(t *testing.T, run func(procs int)) {
	def := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	for _, procs := range []int{1, def} {
		runtime.GOMAXPROCS(procs)
		run(procs)
	}
}

// runFresh executes main on a fresh machine.
func runFresh(main func(rt *RT) uint64) kernel.RunResult {
	return Run(Options{Kernel: kernel.Config{CPUsPerNode: 4}}, main)
}

func TestParallelDoInvariantUnderGOMAXPROCS(t *testing.T) {
	const threads = 8
	program := func(rt *RT) uint64 {
		arr := rt.AllocPages(threads * 2)
		counters := rt.Alloc(4*threads, 4) // same page: false sharing
		res, err := rt.ParallelDo(threads, func(th *Thread) uint64 {
			// Disjoint page-granular region...
			base := arr + vm.Addr(th.ID*2*vm.PageSize)
			for i := 0; i < 2*vm.PageSize/4; i++ {
				th.Env().WriteU32(base+vm.Addr(4*i), uint32(th.ID*1_000_003+i))
			}
			// ...plus a disjoint word on a shared page.
			th.Env().WriteU32(counters+vm.Addr(4*th.ID), uint32(th.ID+1))
			return uint64(th.ID)
		})
		if err != nil {
			panic(err)
		}
		sum := uint64(0)
		for id, v := range res {
			if v != uint64(id) {
				panic("result out of thread-id order")
			}
			sum += th32(rt, counters, id)
		}
		return sum
	}
	type outcome struct {
		ret uint64
		vt  int64
	}
	var base *outcome
	eachGOMAXPROCS(t, func(procs int) {
		r := runFresh(program)
		if r.Status != kernel.StatusHalted {
			t.Fatalf("GOMAXPROCS=%d: %v %v", procs, r.Status, r.Err)
		}
		got := outcome{ret: r.Ret, vt: r.VT}
		if base == nil {
			base = &got
		} else if got != *base {
			t.Errorf("GOMAXPROCS=%d: outcome %+v differs from GOMAXPROCS=1's %+v", procs, got, *base)
		}
	})
}

func th32(rt *RT, base vm.Addr, id int) uint64 {
	return uint64(rt.Env().ReadU32(base + vm.Addr(4*id)))
}

func TestParallelDoConflictInvariantUnderGOMAXPROCS(t *testing.T) {
	// Threads 2 and 5 write the same byte with different values: a
	// write/write conflict whose report — the error text, including the
	// conflicting thread id and first conflicting address — must be
	// identical at every GOMAXPROCS.
	program := func(rt *RT) uint64 {
		slot := rt.Alloc(4, 0)
		_, err := rt.ParallelDo(8, func(th *Thread) uint64 {
			if th.ID == 2 || th.ID == 5 {
				th.Env().WriteU32(slot, uint32(100+th.ID))
			}
			return 0
		})
		if err == nil {
			panic("conflict not detected")
		}
		ce, ok := err.(*ConflictError)
		if !ok {
			panic(fmt.Sprintf("wrong error type %T", err))
		}
		// Thread 2 merges first (id order); thread 5's merge conflicts.
		if ce.ThreadID != 5 {
			panic(fmt.Sprintf("conflict attributed to thread %d, want 5", ce.ThreadID))
		}
		rt.Env().ConsoleWrite([]byte(err.Error()))
		return 1
	}
	var texts []string
	eachGOMAXPROCS(t, func(procs int) {
		var out []byte
		res := Run(Options{Kernel: kernel.Config{
			CPUsPerNode: 4,
			Console:     kernel.NewConsole(nil, &sliceWriter{&out}),
		}}, program)
		if res.Status != kernel.StatusHalted || res.Ret != 1 {
			t.Fatalf("GOMAXPROCS=%d: %v %v", procs, res.Status, res.Err)
		}
		texts = append(texts, string(out))
	})
	for i := 1; i < len(texts); i++ {
		if texts[i] != texts[0] {
			t.Errorf("conflict report differs across GOMAXPROCS:\n%q\nvs\n%q",
				texts[i], texts[0])
		}
	}
}

type sliceWriter struct{ buf *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}

func TestBarrierRoundInvariantUnderGOMAXPROCS(t *testing.T) {
	const threads, phases = 6, 4
	program := func(rt *RT) uint64 {
		arr := rt.Alloc(4*threads*phases, 4)
		if err := rt.RunPhases(threads, phases, func(th *Thread, phase int) {
			// Each phase reads the previous phase's combined row — real
			// cross-thread dataflow through the barrier merges.
			prev := uint32(0)
			if phase > 0 {
				for i := 0; i < threads; i++ {
					prev += th.Env().ReadU32(arr + vm.Addr(4*((phase-1)*threads+i)))
				}
			}
			th.Env().WriteU32(arr+vm.Addr(4*(phase*threads+th.ID)),
				prev+uint32(th.ID+1)*uint32(phase+1))
		}); err != nil {
			panic(err)
		}
		sum := uint64(0)
		for i := 0; i < threads*phases; i++ {
			sum = sum*31 + uint64(rt.Env().ReadU32(arr+vm.Addr(4*i)))
		}
		return sum
	}
	var base *kernel.RunResult
	eachGOMAXPROCS(t, func(procs int) {
		r := runFresh(program)
		if r.Status != kernel.StatusHalted {
			t.Fatalf("GOMAXPROCS=%d: %v %v", procs, r.Status, r.Err)
		}
		if base == nil {
			base = &r
		} else if r.Ret != base.Ret || r.VT != base.VT {
			t.Errorf("GOMAXPROCS=%d: (ret %d, vt %d) differs from (ret %d, vt %d)",
				procs, r.Ret, r.VT, base.Ret, base.VT)
		}
	})
	// And the whole computation must repeat exactly.
	again := runFresh(program)
	if again.Ret != base.Ret || again.VT != base.VT {
		t.Errorf("rerun diverged: (ret %d, vt %d) vs (ret %d, vt %d)",
			again.Ret, again.VT, base.Ret, base.VT)
	}
}
