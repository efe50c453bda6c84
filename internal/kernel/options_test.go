package kernel

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/vm"
)

// Coverage of the remaining Put/Get option combinations of Table 2.

func TestPutZeroOption(t *testing.T) {
	runRoot(t, func(env *Env) {
		// Seed the child with data, then Zero a page of it from outside.
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.SetPerm(0, 2*vm.PageSize, vm.PermRW)
				c.Write(0, []byte("page0"))
				c.Write(vm.PageSize, []byte("page1"))
				c.Ret()
				// After resume, page0 must be zeroed, page1 intact.
				var b [5]byte
				c.Read(0, b[:])
				if b != [5]byte{} {
					panic("zero option did not clear page0")
				}
				c.Read(vm.PageSize, b[:])
				if string(b[:]) != "page1" {
					panic("zero option clobbered page1")
				}
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{}); err != nil {
			panic(err)
		}
		if err := env.Put(1, PutOpts{
			Zero:  &PermRange{Range: Range{Addr: 0, Size: vm.PageSize}, Perm: vm.PermRW},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusHalted {
			panic("child failed: " + info.Status.String())
		}
	})
}

func TestPutPermOptionMakesChildRangeReadOnly(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.SetPerm(0, vm.PageSize, vm.PermRW)
				c.WriteU32(0, 1)
				c.Ret()
				c.WriteU32(0, 2) // parent made this read-only: faults
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{}); err != nil {
			panic(err)
		}
		if err := env.Put(1, PutOpts{
			Perm:  &PermRange{Range: Range{Addr: 0, Size: vm.PageSize}, Perm: vm.PermR},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusFault {
			panic("write through revoked permission did not fault")
		}
	})
}

func TestGetZeroAndPermApplyToParent(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		env.Write(0, []byte("parent"))
		if err := env.Put(1, PutOpts{Regs: &Regs{Entry: func(c *Env) {}}, Start: true}); err != nil {
			panic(err)
		}
		// Get with Zero: zero-fills the PARENT's range.
		if _, err := env.Get(1, GetOpts{
			Zero: &PermRange{Range: Range{Addr: 0, Size: vm.PageSize}, Perm: vm.PermRW},
		}); err != nil {
			panic(err)
		}
		var b [6]byte
		env.Read(0, b[:])
		if b != [6]byte{} {
			panic("Get Zero did not clear parent memory")
		}
		// Get with Perm: adjusts the PARENT's permissions.
		if _, err := env.Get(1, GetOpts{
			Perm: &PermRange{Range: Range{Addr: 0, Size: vm.PageSize}, Perm: vm.PermR},
		}); err != nil {
			panic(err)
		}
		env.Read(0, b[:]) // reading still fine
		env.SetPerm(0, vm.PageSize, vm.PermRW)
	})
}

func TestGetTreeClonesIntoSibling(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.SetPerm(0, vm.PageSize, vm.PermRW)
				c.WriteU32(0, 123)
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		// Get with Tree: copy child 1's subtree into child 2.
		if _, err := env.Get(1, GetOpts{Tree: true, TreeDst: 2}); err != nil {
			panic(err)
		}
		if _, err := env.Get(2, GetOpts{Copy: &CopyRange{0, 0, vm.PageSize}}); err != nil {
			panic(err)
		}
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		if env.ReadU32(0) != 123 {
			panic("Get Tree did not clone the sibling")
		}
	})
}

func TestCombinedOptionsSingleCall(t *testing.T) {
	// The paper's point about Table 2: one Put can initialize registers,
	// copy memory, set permissions, snapshot, and start — all at once.
	runRoot(t, func(env *Env) {
		env.SetPerm(0, 2*vm.PageSize, vm.PermRW)
		env.Write(0, []byte("combined"))
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				var b [8]byte
				c.Read(0, b[:])
				if string(b[:]) != "combined" {
					panic("copy did not arrive")
				}
				c.Write(vm.PageSize, []byte("resp"))
			}},
			Copy:  &CopyRange{0, 0, 2 * vm.PageSize},
			Perm:  &PermRange{Range: Range{Addr: 0, Size: vm.PageSize}, Perm: vm.PermR},
			Snap:  true,
			Start: true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{Merge: true}); err != nil {
			panic(err)
		}
		var b [4]byte
		env.Read(vm.PageSize, b[:])
		if string(b[:]) != "resp" {
			panic("merged response missing")
		}
	})
}

func TestChildRefHomeAliasing(t *testing.T) {
	// Node field 0 means "my home node", so ref idx and ChildOn(home, idx)
	// must name the same child.
	m := New(Config{Nodes: 2})
	res := m.Run(func(env *Env) {
		if err := env.Put(5, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) { c.SetRet(99) }},
			Start: true,
		}); err != nil {
			panic(err)
		}
		// Home of the root is node 0, so ChildOn(0, 5) aliases ref 5.
		info, err := env.Get(ChildOn(0, 5), GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		if info.Regs.Ret != 99 {
			panic("ChildOn(home) did not alias the plain child ref")
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestHaltStopsSpace(t *testing.T) {
	runRoot(t, func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.SetRet(1)
				c.Halt()
				c.SetRet(2) // unreachable
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusHalted || info.Regs.Ret != 1 {
			panic("Halt did not stop the space cleanly")
		}
	})
}

func TestMergeRangeLimitsScope(t *testing.T) {
	runRoot(t, func(env *Env) {
		env.SetPerm(0, 2*vm.PageSize, vm.PermRW)
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				c.Write(0, []byte("in"))            // inside merge range
				c.Write(vm.PageSize, []byte("out")) // outside
			}},
			CopyAll: true,
			Snap:    true,
			Start:   true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(1, GetOpts{
			Merge:      true,
			MergeRange: &Range{Addr: 0, Size: vm.PageSize},
		}); err != nil {
			panic(err)
		}
		var b [3]byte
		env.Read(0, b[:])
		if string(b[:2]) != "in" {
			panic("in-range write not merged")
		}
		env.Read(vm.PageSize, b[:])
		if string(b[:]) == "out" {
			panic("out-of-range write leaked through MergeRange")
		}
	})
}

func TestUnalignedRangesRejected(t *testing.T) {
	runRoot(t, func(env *Env) {
		err := env.Put(1, PutOpts{Copy: &CopyRange{Src: 1, Dst: 0, Size: vm.PageSize}})
		var ke *KernelError
		if !errors.As(err, &ke) {
			panic("unaligned copy accepted")
		}
	})
}

func TestInsnCountVisible(t *testing.T) {
	runRoot(t, func(env *Env) {
		before := env.Insns()
		env.Tick(500)
		if env.Insns()-before != 500 {
			panic("Insns() does not track ticks")
		}
		if env.VT() < 500 {
			panic("VT below instruction count")
		}
	})
}

func TestPutGetCopiesMultipleRanges(t *testing.T) {
	// Copies ships several disjoint regions in one Put (the fork idiom
	// for a thread that carries both a shared region and an FS image);
	// a Get copies one range, so collecting them takes one Get each.
	const (
		regA vm.Addr = 0
		regB vm.Addr = 0x0100_0000
		back vm.Addr = 0x0200_0000
	)
	runRoot(t, func(env *Env) {
		env.SetPerm(regA, vm.PageSize, vm.PermRW)
		env.SetPerm(regB, vm.PageSize, vm.PermRW)
		env.Write(regA, []byte("alpha"))
		env.Write(regB, []byte("beta"))
		if err := env.Put(1, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				var a, b [5]byte
				c.Read(regA, a[:])
				c.Read(regB, b[:])
				if string(a[:]) != "alpha" || string(b[:4]) != "beta" {
					panic("Copies did not ship both ranges")
				}
				c.Write(regA, []byte("ALPHA"))
				c.Write(regB, []byte("BETA!"))
			}},
			Copies: []CopyRange{
				{Src: regA, Dst: regA, Size: vm.PageSize},
				{Src: regB, Dst: regB, Size: vm.PageSize},
			},
			Start: true,
		}); err != nil {
			panic(err)
		}
		env.SetPerm(back, 2*vm.PageSize, vm.PermRW)
		for i, src := range []vm.Addr{regA, regB} {
			dst := back + vm.Addr(i)*vm.PageSize
			if _, err := env.Get(1, GetOpts{Copy: &CopyRange{Src: src, Dst: dst, Size: vm.PageSize}}); err != nil {
				panic(err)
			}
		}
		var a, b [5]byte
		env.Read(back, a[:])
		env.Read(back+vm.PageSize, b[:])
		if string(a[:]) != "ALPHA" || string(b[:]) != "BETA!" {
			panic("Get Copy did not collect both ranges")
		}
		// The parent's own copies of the regions are untouched.
		env.Read(regA, a[:])
		if string(a[:]) != "alpha" {
			panic("child write leaked into parent range")
		}
	})
}

// TestPutCopiedCountsStaleTables: a table-aligned Copy re-shares only the
// tables the child no longer shares with the parent — those either side
// wrote since the last copy — and Copied reports that count, which is
// all the copy charges: re-copying an unchanged region costs the system
// call alone.
func TestPutCopiedCountsStaleTables(t *testing.T) {
	const tables = 4
	size := tables * vm.TableSpan
	region := &CopyRange{Size: size}
	runRoot(t, func(env *Env) {
		env.SetPerm(0, size, vm.PermRW)
		for i := uint64(0); i < tables; i++ {
			env.WriteU64(vm.Addr(i*vm.TableSpan), i)
		}
		resync := func(regs *Regs) (shared int, vt int64) {
			var st vm.CopyStats
			before := env.VT()
			if err := env.Put(1, PutOpts{Regs: regs, Copy: region, Copied: &st, Snap: true, Start: true}); err != nil {
				panic(err)
			}
			vt = env.VT() - before
			if _, err := env.Get(1, GetOpts{}); err != nil {
				panic(err)
			}
			return st.TablesShared, vt
		}
		entry := func(c *Env) {
			c.Ret()
			c.WriteU64(vm.Addr(vm.TableSpan+8), 1)
			c.Ret()
		}
		if n, _ := resync(&Regs{Entry: entry}); n != tables {
			panic(fmt.Sprintf("first copy shared %d tables, want %d", n, tables))
		}
		if n, vt := resync(nil); n != 0 || vt != env.sp.m.cost.Syscall {
			panic(fmt.Sprintf("unchanged region: %d tables shared, %d VT charged", n, vt))
		}
		// The child wrote table 1 during that quantum; the parent now
		// writes table 2.
		env.WriteU64(vm.Addr(2*vm.TableSpan), 7)
		if n, _ := resync(nil); n != 2 {
			panic(fmt.Sprintf("after one write each side: %d tables shared, want 2", n))
		}
	})
}
