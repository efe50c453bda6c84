package core

import (
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Edge-behaviour tests for the thread runtime.

func TestBarrierRoundReportsCrashedThread(t *testing.T) {
	res := Run(Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *RT) uint64 {
		for i := 0; i < 2; i++ {
			i := i
			if err := rt.Fork(i, func(th *Thread) uint64 {
				if i == 1 {
					panic("dies before the barrier")
				}
				th.Barrier()
				return 0
			}); err != nil {
				panic(err)
			}
		}
		err := flatBarrier(rt, []int{0, 1})
		var tc *ThreadCrashError
		if !errors.As(err, &tc) || tc.ThreadID != 1 {
			panic("crashed thread not attributed at barrier")
		}
		return 1
	})
	if res.Status != kernel.StatusHalted || res.Ret != 1 {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestBarrierRoundConflictAttribution(t *testing.T) {
	res := Run(Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *RT) uint64 {
		slot := rt.Alloc(4, 0)
		for i := 0; i < 2; i++ {
			i := i
			if err := rt.Fork(i, func(th *Thread) uint64 {
				th.Env().WriteU32(slot, uint32(i+1)) // nonzero: visible to the byte diff
				th.Barrier()
				return 0
			}); err != nil {
				panic(err)
			}
		}
		err := flatBarrier(rt, []int{0, 1})
		var ce *ConflictError
		if !errors.As(err, &ce) || ce.ThreadID != 1 {
			panic("conflict at barrier not attributed to the second merger")
		}
		return 1
	})
	if res.Status != kernel.StatusHalted || res.Ret != 1 {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestReForkAfterJoinReusesSlot(t *testing.T) {
	res := Run(Options{}, func(rt *RT) uint64 {
		x := rt.Alloc(4, 0)
		var total uint64
		for round := 0; round < 10; round++ {
			round := round
			if err := rt.Fork(0, func(th *Thread) uint64 {
				th.Env().WriteU32(x, uint32(round))
				return uint64(round)
			}); err != nil {
				panic(err)
			}
			v, err := rt.Join(0)
			if err != nil {
				panic(err)
			}
			if rt.Env().ReadU32(x) != uint32(round) {
				panic("merge from reused slot wrong")
			}
			total += v
		}
		return total
	})
	if res.Status != kernel.StatusHalted || res.Ret != 45 {
		t.Fatalf("ret=%d err=%v", res.Ret, res.Err)
	}
}

func TestSharedRangeAndEnvAccessors(t *testing.T) {
	res := Run(Options{SharedSize: 8 << 20}, func(rt *RT) uint64 {
		base, size := rt.SharedRange()
		if base != SharedBase || size != 8<<20 {
			panic("shared range wrong")
		}
		if rt.Env() == nil {
			panic("env accessor nil")
		}
		// Threads observe the same range.
		ok := uint64(0)
		if err := rt.Fork(0, func(th *Thread) uint64 {
			b, s := th.SharedRange()
			if b == base && s == size && th.ID == 0 {
				ok = 1
			}
			return 0
		}); err != nil {
			panic(err)
		}
		if _, err := rt.Join(0); err != nil {
			panic(err)
		}
		return ok
	})
	if res.Ret != 1 {
		t.Fatalf("thread saw wrong shared range (err=%v)", res.Err)
	}
}

func TestSharedSizeRoundedToTableGranularity(t *testing.T) {
	res := Run(Options{SharedSize: 1}, func(rt *RT) uint64 {
		_, size := rt.SharedRange()
		return size
	})
	if res.Ret != 4<<20 {
		t.Errorf("1-byte request rounded to %d, want 4 MiB", res.Ret)
	}
}

func TestAllocBadAlignPanics(t *testing.T) {
	res := Run(Options{}, func(rt *RT) uint64 {
		rt.Alloc(8, 3) // not a power of two
		return 0
	})
	if res.Status != kernel.StatusExcept {
		t.Errorf("bad alignment accepted: %v", res.Status)
	}
}

func TestThreadPrivateScratchOutsideSharedRegion(t *testing.T) {
	// Writes outside the shared region are thread-private: never merged,
	// never conflicting (the paper's thread-private stack areas).
	const scratch vm.Addr = 0x0400_0000
	res := Run(Options{}, func(rt *RT) uint64 {
		for i := 0; i < 2; i++ {
			if err := rt.Fork(i, func(th *Thread) uint64 {
				th.Env().SetPerm(scratch, vm.PageSize, vm.PermRW)
				th.Env().WriteU32(scratch, uint32(th.ID+1))
				return 0
			}); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := rt.Join(i); err != nil {
				panic(err) // same address, both threads: still no conflict
			}
		}
		// And the parent never sees it.
		rt.Env().SetPerm(scratch, vm.PageSize, vm.PermRW)
		return uint64(rt.Env().ReadU32(scratch))
	})
	if res.Status != kernel.StatusHalted || res.Ret != 0 {
		t.Fatalf("private scratch leaked: ret=%d err=%v", res.Ret, res.Err)
	}
}
