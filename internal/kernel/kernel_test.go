package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/vm"
)

// runRoot runs prog as the root program of a fresh single-node machine.
func runRoot(t *testing.T, prog Prog) RunResult {
	t.Helper()
	m := New(Config{})
	res := m.Run(prog, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root stopped with %v (err %v), want halt", res.Status, res.Err)
	}
	return res
}

func TestRootHaltsWithRet(t *testing.T) {
	m := New(Config{})
	res := m.Run(func(env *Env) {
		env.SetRet(42)
	}, 7)
	if res.Status != StatusHalted || res.Ret != 42 {
		t.Errorf("got status %v ret %d, want halted 42", res.Status, res.Ret)
	}
}

func TestArgReachesProgram(t *testing.T) {
	m := New(Config{})
	res := m.Run(func(env *Env) {
		env.SetRet(env.Arg() * 2)
	}, 21)
	if res.Ret != 42 {
		t.Errorf("ret = %d, want 42", res.Ret)
	}
}

func TestForkChildAndCollectResult(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		env.WriteU32(0, 100)
		err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				v := c.ReadU32(0)
				c.WriteU32(0, v+1)
				c.SetRet(uint64(v))
			}},
			CopyAll: true,
			Start:   true,
		})
		if err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{Regs: true, CopyAll: true})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusHalted {
			panic("child did not halt")
		}
		if info.Regs.Ret != 100 {
			panic("child saw wrong initial value")
		}
		if got := env.ReadU32(0); got != 101 {
			panic("parent did not receive child's write")
		}
	})
}

func TestChildMemoryIsPrivate(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		env.WriteU32(0, 5)
		if err := env.Put(1, PutOpts{
			Regs:    &Regs{Entry: func(c *Env) { c.WriteU32(0, 99) }},
			CopyAll: true,
			Start:   true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{}); err != nil {
			panic(err)
		}
		// Without Copy/Merge on the Get, the parent must not see the
		// child's write: shared-nothing.
		if got := env.ReadU32(0); got != 5 {
			panic("child write leaked into parent without explicit Get")
		}
	})
}

func TestRetAndResume(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.SetPerm(0, vm.PageSize, vm.PermRW)
				c.WriteU32(0, 1)
				c.Ret()
				c.WriteU32(0, 2) // runs after resume
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{Copy: &CopyRange{0, 0, vm.PageSize}})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusRet {
			panic("expected StatusRet at first stop")
		}
		if env.ReadU32(0) != 1 {
			panic("first phase value wrong")
		}
		if err := env.Put(1, PutOpts{Start: true}); err != nil {
			panic(err)
		}
		info, err = env.Get(1, GetOpts{Copy: &CopyRange{0, 0, vm.PageSize}})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusHalted {
			panic("expected halt at second stop")
		}
		if env.ReadU32(0) != 2 {
			panic("resume did not continue after Ret")
		}
	})
}

func TestSnapAndMergeViaSyscalls(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		env.Write(0, []byte("aaaa"))
		for i := uint64(1); i <= 2; i++ {
			i := i
			if err := env.Put(i, PutOpts{
				Regs: &Regs{Entry: func(c *Env) {
					// Child i writes byte i-1.
					off := vm.Addr(c.Arg())
					c.Write(off, []byte{'X'})
				}, Arg: i - 1},
				CopyAll: true,
				Snap:    true,
				Start:   true,
			}); err != nil {
				panic(err)
			}
		}
		for i := uint64(1); i <= 2; i++ {
			if _, err := env.Get(i, GetOpts{Merge: true}); err != nil {
				panic(err)
			}
		}
		var b [4]byte
		env.Read(0, b[:])
		if string(b[:]) != "XXaa" {
			panic("merge result wrong: " + string(b[:]))
		}
	})
}

func TestMergeConflictSurfacesAtGet(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		env.Write(0, []byte("aa"))
		for i := uint64(1); i <= 2; i++ {
			if err := env.Put(i, PutOpts{
				Regs:    &Regs{Entry: func(c *Env) { c.Write(0, []byte{'X'}) }},
				CopyAll: true,
				Snap:    true,
				Start:   true,
			}); err != nil {
				panic(err)
			}
		}
		if _, err := env.Get(1, GetOpts{Merge: true}); err != nil {
			panic(err)
		}
		_, err := env.Get(2, GetOpts{Merge: true})
		var mc *vm.MergeConflictError
		if !errors.As(err, &mc) {
			panic("second merge did not report a conflict")
		}
	})
}

func TestMergeWithoutSnapshotIsError(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) {}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		_, err := env.Get(1, GetOpts{Merge: true})
		var ke *KernelError
		if !errors.As(err, &ke) {
			panic("merge without snapshot must fail")
		}
	})
}

func TestInstructionLimitPreempts(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				for i := 0; i < 1000; i++ {
					c.Tick(1)
				}
				c.SetRet(uint64(c.Insns()))
			}},
			Start: true,
			Limit: 100,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusInsnLimit {
			panic("child was not preempted: " + info.Status.String())
		}
		if info.Insns != 100 {
			panic("preemption point not exact")
		}
		// Resume repeatedly until it halts; each quantum is exact.
		quanta := 1
		for info.Status != StatusHalted {
			if err := env.Put(1, PutOpts{Start: true, Limit: 100}); err != nil {
				panic(err)
			}
			info, err = env.Get(1, GetOpts{Regs: true})
			if err != nil {
				panic(err)
			}
			quanta++
		}
		// Ticks 1..1000 fill ten exact quanta; the limit fires at the
		// 1000th instruction (before the program can halt), so an 11th
		// start lets it finish.
		if quanta != 11 {
			panic("unexpected quantum count")
		}
		if info.Regs.Ret != 1000 {
			panic("child did not complete its work across quanta")
		}
	})
}

func TestNoPreemptDefersLimit(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.NoPreempt(func() {
					for i := 0; i < 50; i++ {
						c.Tick(1) // would cross the limit of 10 mid-loop
					}
				})
				c.SetRet(uint64(c.Insns()))
			}},
			Start: true,
			Limit: 10,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		// The limit fires, but only at the NoPreempt boundary.
		if info.Status != StatusInsnLimit || info.Insns != 50 {
			panic("critical section was preempted mid-way")
		}
	})
}

func TestFaultReportsToParent(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) { c.ReadU32(0xdead0000) }},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusFault {
			panic("expected fault status")
		}
		var ae *vm.AccessError
		if !errors.As(info.Err, &ae) {
			panic("fault cause missing")
		}
	})
}

// A store whose span runs past the top of the address space faults the
// space whole: it does not wrap to address 0, and — the child sits on
// another node with nothing resident — demand paging is never charged for
// the wrapped span's pages.
func TestSpanPastTopOfAddressSpaceFaults(t *testing.T) {
	const top = vm.SpaceSize - vm.PageSize
	res := New(Config{Nodes: 2}).Run(func(env *Env) {
		env.SetPerm(0, 2*vm.PageSize, vm.PermRW)
		env.SetPerm(top, vm.PageSize, vm.PermRW)
		ref := ChildOn(1, 1)
		if err := env.Put(ref, PutOpts{
			Regs:    &Regs{Entry: func(c *Env) { c.Write(0xFFFF_FFF0, bytes.Repeat([]byte{0xAB}, 32)) }},
			CopyAll: true,
			Start:   true,
		}); err != nil {
			panic(err)
		}
		for i := range vm.PageSize / 8 {
			env.WriteU64(vm.PageSize+vm.Addr(8*i), ^uint64(0))
		}
		info, err := env.Get(ref, GetOpts{Copy: &CopyRange{Src: 0, Dst: vm.PageSize, Size: vm.PageSize}})
		if err != nil {
			panic(err)
		}
		var se *vm.SpanError
		if info.Status != StatusFault || !errors.As(info.Err, &se) {
			panic(fmt.Sprintf("child stopped with %v (%v), want a fault with a *vm.SpanError", info.Status, info.Err))
		}
		for _, c := range env.sp.children {
			if c.net != (NetStats{}) {
				panic(fmt.Sprintf("refused span was charged demand paging: %+v", c.net))
			}
		}
		for i := range vm.PageSize / 8 {
			if v := env.ReadU64(vm.PageSize + vm.Addr(8*i)); v != 0 {
				panic(fmt.Sprintf("child memory at %#x = %#x after the refused store", 8*i, v))
			}
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root stopped with %v: %v", res.Status, res.Err)
	}
}

func TestExceptionReportsToParent(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) { panic("boom") }},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusExcept || info.Err == nil {
			panic("expected exception status with cause")
		}
		if !strings.Contains(info.Err.Error(), "boom") {
			panic("exception cause lost")
		}
	})
}

func TestStartHaltedChildNeedsNewRegs(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) {}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{}); err != nil {
			panic(err)
		}
		err := env.Put(1, PutOpts{Start: true})
		var ke *KernelError
		if !errors.As(err, &ke) {
			panic("restarting a halted child without fresh registers must fail")
		}
		// With fresh registers it must work.
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) { c.SetRet(9) }},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{Regs: true})
		if err != nil || info.Regs.Ret != 9 {
			panic("fresh start after halt failed")
		}
	})
}

func TestRegsOverwriteDiscardsParkedExecution(t *testing.T) {
	runRoot(t, func(env *Env) {
		mark := uint64(0)
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.Ret()
				mark = 1 // must never run: execution is discarded
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{}); err != nil {
			panic(err)
		}
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) { c.SetRet(7) }},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		if info.Regs.Ret != 7 || mark != 0 {
			panic("old execution survived a register overwrite")
		}
	})
}

func TestGrandchildren(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				// The child forks its own child.
				if err := c.Put(1, PutOpts{
					Regs:  &Regs{Entry: func(g *Env) { g.SetRet(g.Arg() + 1) }, Arg: 10},
					Start: true,
				}); err != nil {
					panic(err)
				}
				gi, err := c.Get(1, GetOpts{Regs: true})
				if err != nil {
					panic(err)
				}
				c.SetRet(gi.Regs.Ret)
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		if info.Regs.Ret != 11 {
			panic("grandchild result did not propagate")
		}
	})
}

func TestChildNamespacesAreDistinct(t *testing.T) {
	runRoot(t, func(env *Env) {
		for i := uint64(1); i <= 4; i++ {
			if err := env.Put(i, PutOpts{
				Regs:  &Regs{Entry: func(c *Env) { c.SetRet(c.Arg() * c.Arg()) }, Arg: i},
				Start: true,
			}); err != nil {
				panic(err)
			}
		}
		for i := uint64(1); i <= 4; i++ {
			info, err := env.Get(i, GetOpts{Regs: true})
			if err != nil {
				panic(err)
			}
			if info.Regs.Ret != i*i {
				panic("children confused their identities")
			}
		}
	})
}

func TestTreeClonesSubtree(t *testing.T) {
	runRoot(t, func(env *Env) {
		// Build child 1 with memory state and a grandchild.
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.SetPerm(0, vm.PageSize, vm.PermRW)
				c.WriteU32(0, 77)
				if err := c.Put(3, PutOpts{
					Regs:  &Regs{Entry: func(g *Env) { g.SetRet(55) }},
					Start: true,
				}); err != nil {
					panic(err)
				}
				if _, err := c.Get(3, GetOpts{}); err != nil {
					panic(err)
				}
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{}); err != nil {
			panic(err)
		}
		// Clone child 1's subtree into child 2.
		if err := env.Put(2, PutOpts{Tree: true, TreeSrc: 1}); err != nil {
			panic(err)
		}
		// The clone has the memory image...
		if _, err := env.Get(2, GetOpts{Copy: &CopyRange{0, 0, vm.PageSize}}); err != nil {
			panic(err)
		}
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		if env.ReadU32(0) != 77 {
			panic("cloned memory missing")
		}
	})
}

func TestDeviceAccessRootOnly(t *testing.T) {
	var out bytes.Buffer
	m := New(Config{Console: NewConsole(strings.NewReader("hi"), &out)})
	res := m.Run(func(env *Env) {
		var b [2]byte
		if n := env.ConsoleRead(b[:]); n != 2 || string(b[:]) != "hi" {
			panic("console read failed")
		}
		env.ConsoleWrite([]byte("ok"))
		if env.ClockNow() <= 0 {
			panic("clock device failed")
		}
		if env.RandUint64() == 0 {
			panic("rand device failed")
		}
		// A child must not reach devices.
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) { c.ClockNow() }},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusExcept {
			panic("non-root device access was not stopped")
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root: %v %v", res.Status, res.Err)
	}
	if out.String() != "ok" {
		t.Errorf("console output = %q", out.String())
	}
}

// TestFootprintRootOnly: the footprint is the machine's, read off its
// frame pool, so only the root may ask for it; a child that does faults.
func TestFootprintRootOnly(t *testing.T) {
	res := New(Config{}).Run(func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		env.WriteU32(0, 1)
		if fp := env.Footprint(); fp != 2 {
			panic(fmt.Sprintf("root footprint %d, want a table and a page", fp))
		}
		if err := env.Put(1, PutOpts{
			Regs:    &Regs{Entry: func(c *Env) { c.Footprint() }},
			CopyAll: true,
			Start:   true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusExcept || !strings.Contains(info.Err.Error(), "kernel: footprint:") {
			panic(fmt.Sprintf("non-root Footprint: %v %v", info.Status, info.Err))
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("root: %v %v", res.Status, res.Err)
	}
}

// parallelSumProg forks n children that each sum a slice of a shared
// array in their private workspace and write the result to a private slot,
// then merges all children. Used for determinism tests.
func parallelSumProg(n int) Prog {
	return func(env *Env) {
		const base = 0
		const resBase = 0x10000
		count := 4096
		env.SetPerm(0, 0x20000, vm.PermRW)
		vals := make([]uint32, count)
		for i := range vals {
			vals[i] = uint32(i * 3)
		}
		env.WriteU32s(base, vals)
		for c := 0; c < n; c++ {
			c := c
			if err := env.Put(uint64(c+1), PutOpts{
				Regs: &Regs{Entry: func(ce *Env) {
					lo := c * count / n
					hi := (c + 1) * count / n
					buf := make([]uint32, hi-lo)
					ce.ReadU32s(vm.Addr(base+4*lo), buf)
					var sum uint32
					for _, v := range buf {
						sum += v
						ce.Tick(1)
					}
					ce.Tick(100_000) // coarse-grained compute phase
					ce.WriteU32(vm.Addr(resBase+4*c), sum)
				}},
				CopyAll: true,
				Snap:    true,
				Start:   true,
			}); err != nil {
				panic(err)
			}
		}
		var total uint32
		for c := 0; c < n; c++ {
			if _, err := env.Get(uint64(c+1), GetOpts{Merge: true}); err != nil {
				panic(err)
			}
			total += env.ReadU32(vm.Addr(resBase + 4*c))
		}
		env.SetRet(uint64(total))
	}
}

func TestParallelDeterminism(t *testing.T) {
	want := uint64(0)
	for i := 0; i < 4096; i++ {
		want += uint64(i * 3)
	}
	var rets []uint64
	var vts []int64
	for run := 0; run < 5; run++ {
		m := New(Config{CPUsPerNode: 4})
		res := m.Run(parallelSumProg(8), 0)
		if res.Status != StatusHalted {
			t.Fatalf("run %d: %v %v", run, res.Status, res.Err)
		}
		rets = append(rets, res.Ret)
		vts = append(vts, res.VT)
	}
	for i, r := range rets {
		if r != want {
			t.Errorf("run %d: sum = %d, want %d", i, r, want)
		}
		if vts[i] != vts[0] {
			t.Errorf("run %d: virtual time %d differs from run 0's %d (nondeterministic)",
				i, vts[i], vts[0])
		}
	}
}

func TestVirtualCPUScalingSpeedsUpVT(t *testing.T) {
	vt := func(cpus int) int64 {
		m := New(Config{CPUsPerNode: cpus})
		res := m.Run(parallelSumProg(8), 0)
		if res.Status != StatusHalted {
			t.Fatalf("cpus=%d: %v %v", cpus, res.Status, res.Err)
		}
		return res.VT
	}
	t1, t4 := vt(1), vt(4)
	if t4 >= t1 {
		t.Errorf("VT with 4 CPUs (%d) not faster than 1 CPU (%d)", t4, t1)
	}
	speedup := float64(t1) / float64(t4)
	if speedup < 1.5 {
		t.Errorf("speedup %0.2f too small for 8 parallel children on 4 CPUs", speedup)
	}
}

func TestMigrationChargesTransfers(t *testing.T) {
	// The same program, run locally vs with the child on another node:
	// the distributed run must charge migration + page transfer costs.
	run := func(remote bool) int64 {
		m := New(Config{Nodes: 2})
		res := m.Run(func(env *Env) {
			env.SetPerm(0, 16*vm.PageSize, vm.PermRW)
			data := make([]uint32, 16*1024)
			for i := range data {
				data[i] = uint32(i)
			}
			env.WriteU32s(0, data)
			ref := uint64(1)
			if remote {
				ref = ChildOn(1, 1)
			}
			if err := env.Put(ref, PutOpts{
				Regs: &Regs{Entry: func(c *Env) {
					buf := make([]uint32, 16*1024)
					c.ReadU32s(0, buf) // demand-fetches all 16 pages when remote
					var s uint32
					for _, v := range buf {
						s += v
					}
					c.SetRet(uint64(s))
				}},
				CopyAll: true,
				Start:   true,
			}); err != nil {
				panic(err)
			}
			if _, err := env.Get(ref, GetOpts{}); err != nil {
				panic(err)
			}
		}, 0)
		if res.Status != StatusHalted {
			t.Fatalf("remote=%v: %v %v", remote, res.Status, res.Err)
		}
		return res.VT
	}
	local, remote := run(false), run(true)
	if remote <= local {
		t.Errorf("remote VT %d not greater than local VT %d", remote, local)
	}
	minExtra := DefaultCostModel().PageTransfer * 16
	if remote-local < minExtra {
		t.Errorf("remote extra %d below expected page transfer cost %d", remote-local, minExtra)
	}
}

func TestROCacheMakesRevisitsCheaper(t *testing.T) {
	// A space that leaves node 1 and comes back, reading the same pages
	// each visit, finds them in node 1's read-only cache (§3.3): the
	// second visit costs less than a first visit to a third node, which
	// must transfer them again.
	prog := func(second int) Prog {
		return func(env *Env) {
			env.SetPerm(0, 8*vm.PageSize, vm.PermRW)
			buf := make([]uint32, 8*1024)
			env.WriteU32s(0, buf)
			for _, nd := range []int{1, second} {
				// Interacting with a child on node nd migrates us there...
				if err := env.Put(ChildOn(nd, 1), PutOpts{
					Regs:  &Regs{Entry: func(c *Env) {}},
					Start: true,
				}); err != nil {
					panic(err)
				}
				if _, err := env.Get(ChildOn(nd, 1), GetOpts{}); err != nil {
					panic(err)
				}
				env.ReadU32s(0, buf) // ...where we read our pages
				// ...and a child on node 0 migrates us home.
				if err := env.Put(ChildOn(0, 2), PutOpts{
					Regs:  &Regs{Entry: func(c *Env) {}},
					Start: true,
				}); err != nil {
					panic(err)
				}
				if _, err := env.Get(ChildOn(0, 2), GetOpts{}); err != nil {
					panic(err)
				}
			}
		}
	}
	vt := func(nodes, second int) int64 {
		res := New(Config{Nodes: nodes}).Run(prog(second), 0)
		if res.Status != StatusHalted {
			t.Fatalf("%d nodes, second visit to node %d: %v %v", nodes, second, res.Status, res.Err)
		}
		return res.VT
	}
	cached, uncached := vt(2, 1), vt(3, 2)
	if cached >= uncached {
		t.Errorf("RO cache did not reduce VT: cached %d, uncached %d", cached, uncached)
	}
}

func TestTCPLikeModeAddsSmallOverhead(t *testing.T) {
	prog := func(env *Env) {
		for i := 0; i < 10; i++ {
			ref := ChildOn(1, uint64(i+1))
			if err := env.Put(ref, PutOpts{
				Regs:  &Regs{Entry: func(c *Env) { c.Tick(100000) }},
				Start: true,
			}); err != nil {
				panic(err)
			}
			if _, err := env.Get(ref, GetOpts{}); err != nil {
				panic(err)
			}
		}
	}
	vt := func(tcp bool) int64 {
		cost := DefaultCostModel()
		cost.TCPLike = tcp
		m := New(Config{Nodes: 2, Cost: cost})
		res := m.Run(prog, 0)
		if res.Status != StatusHalted {
			t.Fatalf("tcp=%v: %v %v", tcp, res.Status, res.Err)
		}
		return res.VT
	}
	plain, tcp := vt(false), vt(true)
	if tcp <= plain {
		t.Fatalf("TCP-like mode added no cost: %d vs %d", tcp, plain)
	}
	overhead := float64(tcp-plain) / float64(plain)
	if overhead > 0.10 {
		t.Errorf("TCP-like overhead %.1f%% unexpectedly large", overhead*100)
	}
}

func TestChildRefNodeOutOfRange(t *testing.T) {
	runRoot(t, func(env *Env) {
		err := env.Put(ChildOn(5, 1), PutOpts{})
		var ke *KernelError
		if !errors.As(err, &ke) {
			panic("out-of-range node accepted")
		}
	})
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		StatusNever: "never-started", StatusRet: "ret", StatusInsnLimit: "insn-limit",
		StatusHalted: "halted", StatusFault: "fault", StatusExcept: "exception",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	if !StatusRet.Resumable() || !StatusInsnLimit.Resumable() || StatusHalted.Resumable() {
		t.Error("Resumable classification wrong")
	}
}

// TestStartWaitKeepsMachineLive: Start launches the root without
// waiting, so a root that blocks on its host's behalf keeps the whole
// machine — stopped children included — alive until released, and Wait
// then reports exactly what Run would have.
func TestStartWaitKeepsMachineLive(t *testing.T) {
	prog := func(park <-chan struct{}, parked chan<- int) Prog {
		return func(env *Env) {
			env.SetPerm(0, vm.PageSize, vm.PermRW)
			env.WriteU32(0, 5)
			if err := env.Put(1, PutOpts{
				Regs:    &Regs{Entry: func(c *Env) { c.WriteU32(4, c.ReadU32(0)+1) }},
				CopyAll: true, Snap: true, Start: true,
			}); err != nil {
				panic(err)
			}
			if _, err := env.Get(1, GetOpts{Merge: true}); err != nil {
				panic(err)
			}
			if parked != nil {
				parked <- env.Footprint()
				<-park
			}
			env.SetRet(uint64(env.ReadU32(4)))
		}
	}
	want := New(Config{}).Run(prog(nil, nil), 0)

	park, parked := make(chan struct{}), make(chan int)
	m := New(Config{})
	m.Start(prog(park, parked), 0)
	// Root, child and the child's snapshot share one table; the root's
	// page diverged from the snapshot's, and the merge adopted or copied
	// the child's: at least the table and a page, far fewer than three
	// unshared copies.
	if fp := <-parked; fp < 2 || fp > 6 {
		t.Fatalf("footprint of a parked machine = %d", fp)
	}
	close(park)
	if got := m.Wait(); got != want || got.Ret != 6 {
		t.Fatalf("Start+Wait = %+v, Run = %+v", got, want)
	}
}

// ReadRuns is Read for a caller that folds the bytes: stitched back
// together, the runs it delivers are the bytes Read returns — for spans
// that start and end mid-page too — and it advances the instruction
// count and virtual time exactly as Read does.
func TestReadRunsMatchesRead(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, 8*vm.PageSize, vm.PermRW)
		env.Write(vm.PageSize+10, []byte("backed"))         // page 1
		env.Write(4*vm.PageSize-2, []byte("straddles"))     // pages 3 and 4
		env.Write(6*vm.PageSize, make([]byte, vm.PageSize)) // page 6: backed zeros
		for _, span := range [][2]int{{0, 8 * vm.PageSize}, {vm.PageSize + 12, 3 * vm.PageSize}, {100, 50}, {5*vm.PageSize + 1, vm.PageSize}, {0, 0}} {
			addr, size := vm.Addr(span[0]), span[1]
			want := make([]byte, size)
			vt, insns := env.VT(), env.Insns()
			env.Read(addr, want)
			readVT, readInsns := env.VT()-vt, env.Insns()-insns

			var got []byte
			zeroBytes := 0
			vt, insns = env.VT(), env.Insns()
			env.ReadRuns(addr, size,
				func(b []byte) { got = append(got, b...) },
				func(n int) { got = append(got, make([]byte, n)...); zeroBytes += n })
			if !bytes.Equal(got, want) {
				panic("ReadRuns delivered different bytes than Read")
			}
			if env.VT()-vt != readVT || env.Insns()-insns != readInsns {
				panic("ReadRuns charged differently from Read")
			}
			if size == 8*vm.PageSize && zeroBytes != 4*vm.PageSize {
				panic("ReadRuns did not report the four untouched pages as zero runs")
			}
		}
	})
}

// The scalar float accessors read and write the same little-endian word
// the U64 and bulk F64 accessors do, and charge as the U64 ones do.
func TestScalarF64SharesTheWord(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		vt, insns := env.VT(), env.Insns()
		env.WriteU64(16, 0)
		_ = env.ReadU64(16)
		wordVT, wordInsns := env.VT()-vt, env.Insns()-insns

		vt, insns = env.VT(), env.Insns()
		env.WriteF64(16, -3.25)
		got := env.ReadF64(16)
		if env.VT()-vt != wordVT || env.Insns()-insns != wordInsns {
			panic("a float load and store charged differently from a uint64 pair")
		}
		var bulk [1]float64
		env.ReadF64s(16, bulk[:])
		if got != -3.25 || bulk[0] != -3.25 || env.ReadU64(16) != math.Float64bits(-3.25) {
			panic("the float accessors disagree about the word")
		}
	})
}
