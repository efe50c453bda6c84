package kernel

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/vm"
)

// goroutineID parses the running goroutine's id from its stack header,
// "goroutine N [running]:".
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// settleGoroutines waits for goroutines that are past their last
// statement to leave runtime.NumGoroutine, and reports the count once it
// is at most max or a second has passed.
func settleGoroutines(max int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > max && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestRestartedChildKeepsItsGoroutine: a child started, halted and
// started again 200 times runs every time on the one goroutine its first
// start spawned, so the process never holds more than the root's and the
// child's, and Wait retires both.
func TestRestartedChildKeepsItsGoroutine(t *testing.T) {
	const restarts = 200
	base := runtime.NumGoroutine()
	var ids []uint64
	res := New(Config{}).Run(func(env *Env) {
		for i := 0; i < restarts; i++ {
			err := env.Put(1, PutOpts{Start: true, Regs: &Regs{Arg: uint64(i), Entry: func(c *Env) {
				ids = append(ids, goroutineID())
				c.SetRet(c.Arg() * 3)
			}}})
			if err != nil {
				t.Errorf("restart %d: put: %v", i, err)
				return
			}
			info, err := env.Get(1, GetOpts{Regs: true})
			if err != nil || info.Status != StatusHalted || info.Regs.Ret != uint64(i)*3 {
				t.Errorf("restart %d: get %+v, %v", i, info, err)
				return
			}
			if n := runtime.NumGoroutine(); n > base+2 {
				t.Errorf("restart %d: %d goroutines, base %d", i, n, base)
				return
			}
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root: %v %v", res.Status, res.Err)
	}
	if len(ids) != restarts {
		t.Fatalf("child ran %d times, want %d", len(ids), restarts)
	}
	for i, id := range ids {
		if id != ids[0] {
			t.Fatalf("run %d on goroutine %d, run 0 on %d", i, id, ids[0])
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines after Wait, base %d", n, base)
	}
}

// TestGoexitHaltsTheSpace: a program that ends its goroutine with
// runtime.Goexit halts the space, which a later start runs again on a
// goroutine of its own.
func TestGoexitHaltsTheSpace(t *testing.T) {
	res := New(Config{}).Run(func(env *Env) {
		for i := uint64(1); i <= 3; i++ {
			err := env.Put(1, PutOpts{Start: true, Regs: &Regs{Arg: i, Entry: func(c *Env) {
				c.SetRet(c.Arg())
				if c.Arg() != 2 {
					runtime.Goexit()
				}
			}}})
			if err != nil {
				panic(err)
			}
			info, err := env.Get(1, GetOpts{Regs: true})
			if err != nil || info.Status != StatusHalted || info.Regs.Ret != i {
				panic(fmt.Sprintf("run %d: %+v, %v", i, info, err))
			}
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root: %v %v", res.Status, res.Err)
	}
}

// TestFaultedChildRestartsLikeAFreshSpace: a child that faulted and is
// started again at new registers halts with the status, result and
// virtual time a never-started child running the same program gets.
func TestFaultedChildRestartsLikeAFreshSpace(t *testing.T) {
	fault := func(c *Env) { c.WriteU32(0x4000_0000, 1) }
	work := func(c *Env) {
		c.SetPerm(0, vm.PageSize, vm.PermRW)
		c.Tick(500)
		c.WriteU64(8, c.Arg())
		c.SetRet(c.ReadU64(8) + uint64(c.VT()))
	}
	type outcome struct {
		Status Status
		Ret    uint64
		VT     int64
	}
	run := func(again uint64) outcome {
		var o outcome
		res := New(Config{CPUsPerNode: 2}).Run(func(env *Env) {
			if err := env.Put(1, PutOpts{Start: true, Regs: &Regs{Entry: fault}}); err != nil {
				panic(err)
			}
			info, err := env.Get(1, GetOpts{})
			if err != nil || info.Status != StatusFault {
				t.Errorf("first run: %v, %v", info.Status, err)
			}
			if err := env.Put(again, PutOpts{Start: true, Regs: &Regs{Entry: work, Arg: 7}}); err != nil {
				panic(err)
			}
			if info, err = env.Get(again, GetOpts{Regs: true}); err != nil {
				panic(err)
			}
			o = outcome{info.Status, info.Regs.Ret, env.VT()}
		}, 0)
		if res.Status != StatusHalted {
			t.Fatalf("root: %v %v", res.Status, res.Err)
		}
		return o
	}
	restarted, fresh := run(1), run(2)
	if restarted != fresh || restarted.Status != StatusHalted {
		t.Errorf("restarted child %+v, fresh child %+v", restarted, fresh)
	}
}

// TestTreeOntoIdlingSpace: Tree clones a subtree onto a space whose run
// halted and whose goroutine idles; the clone's registers run on that
// goroutine at the next start — a parked source's from its entry, a
// halted one's only at fresh registers.
func TestTreeOntoIdlingSpace(t *testing.T) {
	res := New(Config{}).Run(func(env *Env) {
		start := func(ref uint64, prog Prog, arg uint64) {
			if err := env.Put(ref, PutOpts{Start: true, Regs: &Regs{Entry: prog, Arg: arg}}); err != nil {
				panic(err)
			}
		}
		ret := func(ref uint64) (Status, uint64) {
			info, err := env.Get(ref, GetOpts{Regs: true})
			if err != nil {
				panic(err)
			}
			return info.Status, info.Regs.Ret
		}
		// The source writes its argument to memory; run again, it reports
		// what it finds there plus the new argument.
		src := func(c *Env) {
			c.SetPerm(0, vm.PageSize, vm.PermRW)
			c.SetRet(c.ReadU64(0) + c.Arg())
			c.WriteU64(0, c.Arg())
			c.Ret()
		}
		start(1, func(c *Env) { c.SetRet(1) }, 0) // halts: its goroutine idles
		if st, _ := ret(1); st != StatusHalted {
			panic(fmt.Sprintf("child 1: %v", st))
		}
		start(2, src, 40)
		if st, r := ret(2); st != StatusRet || r != 40 {
			panic(fmt.Sprintf("source: %v %d", st, r))
		}
		// Parked source: the clone restarts from the source's registers.
		if err := env.Put(1, PutOpts{Tree: true, TreeSrc: 2, Start: true}); err != nil {
			panic(err)
		}
		if st, r := ret(1); st != StatusRet || r != 80 {
			t.Errorf("clone of a parked source: %v %d, want ret 80", st, r)
		}
		// Halted source: the clone is halted, and runs new registers.
		if err := env.Put(2, PutOpts{Regs: &Regs{Entry: func(c *Env) { c.SetRet(c.ReadU64(0) + 2) }}, Start: true}); err != nil {
			panic(err)
		}
		if st, r := ret(2); st != StatusHalted || r != 42 {
			panic(fmt.Sprintf("source rerun: %v %d", st, r))
		}
		if err := env.Put(1, PutOpts{Tree: true, TreeSrc: 2, Start: true}); err == nil {
			t.Errorf("started a halted clone without registers")
		}
		start(1, func(c *Env) { c.SetRet(c.ReadU64(0) * 2) }, 0)
		if st, r := ret(1); st != StatusHalted || r != 80 {
			t.Errorf("clone of a halted source: %v %d, want ret 80", st, r)
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root: %v %v", res.Status, res.Err)
	}
}

// TestCheckpointWithIdlingChildren: children that halted or faulted keep
// idling goroutines, and a checkpoint taken among them is as quiescent as
// ever: taken at any barrier of a run that goes on, it restores in a
// fresh machine whose resumed phases end bit-identical to that run.
func TestCheckpointWithIdlingChildren(t *testing.T) {
	const phases = 4
	prog := func(first int, barrier func(env *Env, next int) bool) Prog {
		return func(env *Env) {
			if first == 0 {
				env.SetPerm(ckBase, ckSize, vm.PermRW)
			}
			for p := first; p < phases; p++ {
				ckPhase(t, env, p)
				// Child 2 faults in odd phases and halts in even ones;
				// both leave its goroutine idling.
				err := env.Put(2, PutOpts{Start: true, Regs: &Regs{Arg: uint64(p), Entry: func(c *Env) {
					c.Tick(int64(c.Arg()) * 10)
					if c.Arg()%2 == 1 {
						c.WriteU32(0x4000_0000, 1)
					}
				}}})
				if err != nil {
					panic(err)
				}
				info, err := env.Get(2, GetOpts{})
				if err != nil {
					panic(err)
				}
				sum := env.ReadU64(ckBase+8*vm.PageSize)*7 + uint64(info.Status)
				env.WriteU64(ckBase+8*vm.PageSize, sum)
				if barrier != nil && !barrier(env, p+1) {
					return
				}
			}
			ckResult(env)
		}
	}
	// The reference run checkpoints at every barrier and goes on.
	images := map[int][]byte{}
	capture := func(env *Env, next int) bool {
		img, err := env.Checkpoint(CheckpointOpts{})
		if err != nil {
			panic(err)
		}
		images[next] = img
		return true
	}
	want := New(ckConfig()).Run(prog(0, capture), 0)
	if want.Status != StatusHalted {
		t.Fatalf("uninterrupted run: %v %v", want.Status, want.Err)
	}
	for stop := 1; stop < phases; stop++ {
		m := New(ckConfig())
		if err := m.Restore(images[stop]); err != nil {
			t.Fatalf("restore at %d: %v", stop, err)
		}
		if got := m.Run(prog(stop, nil), 0); got != want {
			t.Errorf("resume at phase %d:\n got %+v\nwant %+v", stop, got, want)
		}
	}
}
