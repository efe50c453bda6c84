package dsched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

func TestMutexProtectsCounter(t *testing.T) {
	// Classic increment race: n threads × k increments under a mutex.
	// Deterministic scheduling must produce exactly n*k.
	const n, k = 4, 25
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 4}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 1000})
		counter := rt.Alloc(4, 4)
		mu := s.NewMutex()
		rt.Env().WriteU32(counter, 0)
		if err := s.Run(n, func(th *Thread) {
			for i := 0; i < k; i++ {
				th.Lock(mu)
				v := th.Env().ReadU32(counter)
				th.Env().Tick(10)
				th.Env().WriteU32(counter, v+1)
				th.Unlock(mu)
				th.Env().Tick(50)
			}
		}); err != nil {
			panic(err)
		}
		return uint64(rt.Env().ReadU32(counter))
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	if res.Ret != n*k {
		t.Errorf("counter = %d, want %d (lost updates)", res.Ret, n*k)
	}
}

func TestSchedulingIsDeterministic(t *testing.T) {
	// A racy-but-locked program must produce the identical result and
	// identical round count on every run.
	prog := func() (uint64, int64) {
		var rounds int64
		res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 4}}, func(rt *core.RT) uint64 {
			s := mustNew(rt, Config{Quantum: 500})
			slots := rt.Alloc(8*8, 8)
			mu := s.NewMutex()
			seq := rt.Alloc(8, 8)
			if err := s.Run(4, func(th *Thread) {
				for i := 0; i < 5; i++ {
					th.Lock(mu)
					// Record acquisition order: which thread got the
					// mutex at each step.
					pos := th.Env().ReadU64(seq)
					th.Env().WriteU64(seq, pos+1)
					if pos < 8 {
						th.Env().WriteU64(slots+vm.Addr(8*pos), uint64(th.ID+1))
					}
					th.Unlock(mu)
					th.Env().Tick(100 * int64(th.ID+1))
				}
			}); err != nil {
				panic(err)
			}
			rounds = s.Stats().Rounds
			var sig uint64
			for i := 0; i < 8; i++ {
				sig = sig*31 + rt.Env().ReadU64(slots+vm.Addr(8*i))
			}
			return sig
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("%v: %v", res.Status, res.Err)
		}
		return res.Ret, rounds
	}
	sig1, r1 := prog()
	for i := 0; i < 3; i++ {
		sig, r := prog()
		if sig != sig1 || r != r1 {
			t.Fatalf("run %d: signature/rounds %d/%d differ from %d/%d — nondeterministic",
				i, sig, r, sig1, r1)
		}
	}
}

func TestOwnerFastPathNeedsNoScheduler(t *testing.T) {
	// A single thread locking and unlocking its own mutex repeatedly
	// should finish in very few rounds: the owner fast path never traps.
	res := core.Run(core.Options{}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 100_000})
		mu := s.NewMutex()
		x := rt.Alloc(4, 4)
		if err := s.Run(1, func(th *Thread) {
			for i := 0; i < 100; i++ {
				th.Lock(mu)
				th.Env().WriteU32(x, uint32(i))
				th.Unlock(mu)
			}
		}); err != nil {
			panic(err)
		}
		return uint64(s.Stats().Rounds)
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	if res.Ret > 2 {
		t.Errorf("owner fast path trapped to the scheduler (%d rounds)", res.Ret)
	}
}

// TestCondVarHandshake: one producer fills a slot; one consumer drains
// it; a condvar in each direction. Checks wake-up and re-acquisition.
func TestCondVarHandshake(t *testing.T) {
	const items = 5
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 2000})
		mu := s.NewMutex()
		cvFull := s.NewCond()
		cvEmpty := s.NewCond()
		slot := rt.Alloc(8, 8)  // 0 = empty, else value
		total := rt.Alloc(8, 8) // consumer's sum
		if err := s.Run(2, func(th *Thread) {
			if th.ID == 0 { // producer
				for i := 1; i <= items; i++ {
					th.Lock(mu)
					for th.Env().ReadU64(slot) != 0 {
						th.Wait(cvEmpty, mu)
					}
					th.Env().WriteU64(slot, uint64(i))
					th.Unlock(mu)
					th.Signal(cvFull)
				}
			} else { // consumer
				got := 0
				for got < items {
					th.Lock(mu)
					for th.Env().ReadU64(slot) == 0 {
						th.Wait(cvFull, mu)
					}
					v := th.Env().ReadU64(slot)
					th.Env().WriteU64(slot, 0)
					th.Env().WriteU64(total, th.Env().ReadU64(total)+v)
					th.Unlock(mu)
					th.Signal(cvEmpty)
					got++
				}
			}
		}); err != nil {
			panic(err)
		}
		return rt.Env().ReadU64(total)
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	want := uint64(items * (items + 1) / 2)
	if res.Ret != want {
		t.Errorf("consumer total = %d, want %d", res.Ret, want)
	}
}

func TestBarrierSynchronizesPhases(t *testing.T) {
	const n = 4
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 4}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 5000})
		b := s.NewBarrier(n)
		arr := rt.Alloc(4*n, 4)
		ok := rt.Alloc(4, 4)
		rt.Env().WriteU32(ok, 1)
		if err := s.Run(n, func(th *Thread) {
			th.Env().WriteU32(arr+vm.Addr(4*th.ID), uint32(th.ID+1))
			th.BarrierWait(b)
			// After the barrier every thread must see all writes.
			for j := 0; j < n; j++ {
				if th.Env().ReadU32(arr+vm.Addr(4*j)) != uint32(j+1) {
					th.Env().WriteU32(ok, 0)
				}
			}
		}); err != nil {
			panic(err)
		}
		return uint64(rt.Env().ReadU32(ok))
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	if res.Ret != 1 {
		t.Error("a thread missed another's pre-barrier write")
	}
}

func TestRacyWritesAreRepeatableNotConflicting(t *testing.T) {
	// Two threads write the same word without locking. Under the
	// deterministic scheduler this must not raise a conflict, and the
	// (arbitrary) winner must be identical across runs (§4.5).
	prog := func() uint64 {
		res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
			s := mustNew(rt, Config{Quantum: 300})
			x := rt.Alloc(8, 8)
			if err := s.Run(2, func(th *Thread) {
				for i := 0; i < 10; i++ {
					th.Env().WriteU64(x, uint64(th.ID*1000+i))
					th.Env().Tick(100)
				}
			}); err != nil {
				panic(err)
			}
			return rt.Env().ReadU64(x)
		})
		if res.Status != kernel.StatusHalted {
			t.Fatalf("%v: %v", res.Status, res.Err)
		}
		return res.Ret
	}
	first := prog()
	for i := 0; i < 3; i++ {
		if got := prog(); got != first {
			t.Fatalf("racy program not repeatable: %d vs %d", got, first)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 1000})
		a := s.NewMutex()
		b := s.NewMutex()
		err := s.Run(2, func(th *Thread) {
			if th.ID == 0 {
				th.Lock(a)
				th.Yield()
				th.Lock(b)
			} else {
				th.Lock(b)
				th.Yield()
				th.Lock(a)
			}
		})
		if !errors.Is(err, ErrDeadlock) {
			panic("deadlock not detected: " + errString(err))
		}
		return 0
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestUnlockWithoutOwnershipPanics(t *testing.T) {
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 1000})
		mu := s.NewMutex()
		err := s.Run(2, func(th *Thread) {
			if th.ID == 1 {
				th.Unlock(mu) // thread 1 never acquired it
			}
		})
		if err == nil || !strings.Contains(err.Error(), "does not own") {
			panic("bogus unlock not caught")
		}
		return 0
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestCrashingThreadReported(t *testing.T) {
	res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 1000})
		err := s.Run(2, func(th *Thread) {
			if th.ID == 1 {
				panic("thread bug")
			}
		})
		if err == nil || !strings.Contains(err.Error(), "crashed") {
			panic("crash not reported")
		}
		return 0
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestSmallerQuantumMoreRounds(t *testing.T) {
	rounds := func(q int64) int64 {
		var r int64
		res := core.Run(core.Options{Kernel: kernel.Config{CPUsPerNode: 2}}, func(rt *core.RT) uint64 {
			s := mustNew(rt, Config{Quantum: q})
			if err := s.Run(2, func(th *Thread) {
				th.Env().Tick(10_000)
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
	small, large := rounds(500), rounds(100_000)
	if small <= large {
		t.Errorf("quantum 500 used %d rounds, quantum 100k used %d: expected more rounds for smaller quantum",
			small, large)
	}
}
