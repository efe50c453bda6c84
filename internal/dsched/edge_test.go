package dsched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Edge cases of the deterministic scheduler's synchronization objects.

func TestBroadcastWakesAllWaiters(t *testing.T) {
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 4}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 2000})
		mu := s.NewMutex()
		cv := s.NewCond()
		ready := rt.Alloc(8, 8)
		woken := rt.Alloc(4*4, 4)
		if err := s.Run(4, func(th *Thread) {
			if th.ID == 0 {
				// Let the waiters queue up, then broadcast.
				th.Env().Tick(20_000)
				th.Lock(mu)
				th.Env().WriteU64(ready, 1)
				th.Unlock(mu)
				th.Broadcast(cv)
				return
			}
			th.Lock(mu)
			for th.Env().ReadU64(ready) == 0 {
				th.Wait(cv, mu)
			}
			th.Env().WriteU32(woken+vm.Addr(4*th.ID), 1)
			th.Unlock(mu)
		}); err != nil {
			panic(err)
		}
		var n uint64
		for i := 1; i < 4; i++ {
			n += uint64(rt.Env().ReadU32(woken + vm.Addr(4*i)))
		}
		return n
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	if res.Ret != 3 {
		t.Errorf("broadcast woke %d of 3 waiters", res.Ret)
	}
}

func TestSignalWithNoWaitersIsNoOp(t *testing.T) {
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 2000})
		cv := s.NewCond()
		if err := s.Run(1, func(th *Thread) {
			th.Signal(cv) // nobody waiting: must not wedge the scheduler
			th.Env().Tick(100)
		}); err != nil {
			panic(err)
		}
		return 1
	})
	if res.Status != kernel.StatusHalted || res.Ret != 1 {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestMultipleMutexesIndependent(t *testing.T) {
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 1500})
		a, b := s.NewMutex(), s.NewMutex()
		ca := rt.Alloc(8, 8)
		cb := rt.Alloc(8, 8)
		if err := s.Run(2, func(th *Thread) {
			// Thread 0 works under a, thread 1 under b: no interference.
			m, ctr := a, ca
			if th.ID == 1 {
				m, ctr = b, cb
			}
			for i := 0; i < 20; i++ {
				th.Lock(m)
				th.Env().WriteU64(ctr, th.Env().ReadU64(ctr)+1)
				th.Unlock(m)
				th.Env().Tick(100)
			}
		}); err != nil {
			panic(err)
		}
		return rt.Env().ReadU64(ca)*100 + rt.Env().ReadU64(cb)
	})
	if res.Status != kernel.StatusHalted || res.Ret != 2020 {
		t.Fatalf("ret=%d err=%v", res.Ret, res.Err)
	}
}

func TestYieldEndsQuantumEarly(t *testing.T) {
	// A thread that yields constantly forces many rounds even though it
	// executes few instructions.
	rounds := func(yield bool) int64 {
		var r int64
		res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
			s := mustNew(rt, Config{Quantum: 1_000_000})
			if err := s.Run(1, func(th *Thread) {
				for i := 0; i < 20; i++ {
					th.Env().Tick(10)
					if yield {
						th.Yield()
					}
				}
			}); err != nil {
				panic(err)
			}
			r = s.Stats().Rounds
			return 0
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("%v: %v", res.Status, res.Err)
		}
		return r
	}
	if quiet, yielding := rounds(false), rounds(true); yielding <= quiet {
		t.Errorf("yield did not end quanta early: %d vs %d rounds", yielding, quiet)
	}
}

// TestZeroThreadsCompletesTrivially: with no thread there is nothing to
// start or collect, so Run(0) returns at once and runs no round:
// Stats.Rounds stays 0.
func TestZeroThreadsCompletesTrivially(t *testing.T) {
	var st Stats
	res := core.Run(core.Options{}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{})
		if err := s.Run(0, func(th *Thread) {}); err != nil {
			panic(err)
		}
		st = s.Stats()
		return 1
	})
	if res.Status != kernel.StatusHalted || res.Ret != 1 {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	if st != (Stats{}) {
		t.Errorf("Run(0) left stats %+v, want none", st)
	}
}
