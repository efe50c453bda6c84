package kernel

import (
	"testing"

	"repro/internal/vm"
)

// Cluster-behaviour tests beyond the basic migration cost checks.

func TestRemoteGrandchildren(t *testing.T) {
	// A child created on a remote node forks its own children there;
	// results must flow back through two hierarchy levels and two nodes.
	m := New(Config{Nodes: 3})
	res := m.Run(func(env *Env) {
		if err := env.Put(ChildOn(2, 1), PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				if c.HomeNodeID() != 2 {
					panic("child not created on node 2")
				}
				// Fork grandchildren on the child's own node and on node 1.
				for i, node := range []int{2, 1} {
					i, node := uint64(i+1), node
					if err := c.Put(ChildOn(node, i), PutOpts{
						Regs:  &Regs{Entry: func(g *Env) { g.SetRet(g.Arg() * 3) }, Arg: i},
						Start: true,
					}); err != nil {
						panic(err)
					}
				}
				var sum uint64
				for i, node := range []int{2, 1} {
					info, err := c.Get(ChildOn(node, uint64(i+1)), GetOpts{Regs: true})
					if err != nil {
						panic(err)
					}
					sum += info.Regs.Ret
				}
				c.SetRet(sum)
			}},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(ChildOn(2, 1), GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		if info.Regs.Ret != 3+6 {
			panic("grandchild results wrong across nodes")
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestMigrationPreservesMemoryContents(t *testing.T) {
	// Migration is a cost-model event; contents must be bit-identical
	// wherever the space runs.
	m := New(Config{Nodes: 4})
	res := m.Run(func(env *Env) {
		env.SetPerm(0, 4*vm.PageSize, vm.PermRW)
		data := make([]uint32, 4096)
		for i := range data {
			data[i] = uint32(i * 13)
		}
		env.WriteU32s(0, data)
		// Bounce across every node by touching a child on each.
		for n := 0; n < 4; n++ {
			ref := ChildOn(n, 1)
			if err := env.Put(ref, PutOpts{
				Regs:  &Regs{Entry: func(c *Env) {}},
				Start: true,
			}); err != nil {
				panic(err)
			}
			if _, err := env.Get(ref, GetOpts{}); err != nil {
				panic(err)
			}
			got := make([]uint32, 4096)
			env.ReadU32s(0, got)
			for i := range got {
				if got[i] != data[i] {
					panic("memory changed across migration")
				}
			}
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

func TestDistributedResultEqualsLocal(t *testing.T) {
	// The same merge-heavy program on 1 node and on 4 nodes: identical
	// memory outcome (distribution is semantically transparent, §3.3).
	prog := func(nodes int) Prog {
		return func(env *Env) {
			env.SetPerm(0, vm.PageSize, vm.PermRW)
			for i := 0; i < 4; i++ {
				i := i
				ref := uint64(i + 1)
				if nodes > 1 {
					ref = ChildOn(i%nodes, uint64(i+1))
				}
				if err := env.Put(ref, PutOpts{
					Regs: &Regs{Entry: func(c *Env) {
						c.WriteU32(vm.Addr(4*i), uint32(i+100))
					}},
					CopyAll: true,
					Snap:    true,
					Start:   true,
				}); err != nil {
					panic(err)
				}
			}
			var sig uint64
			for i := 0; i < 4; i++ {
				ref := uint64(i + 1)
				if nodes > 1 {
					ref = ChildOn(i%nodes, uint64(i+1))
				}
				if _, err := env.Get(ref, GetOpts{Merge: true}); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 4; i++ {
				sig = sig*31 + uint64(env.ReadU32(vm.Addr(4*i)))
			}
			env.SetRet(sig)
		}
	}
	r1 := New(Config{Nodes: 1}).Run(prog(1), 0)
	r4 := New(Config{Nodes: 4}).Run(prog(4), 0)
	if r1.Status != StatusHalted || r4.Status != StatusHalted {
		t.Fatalf("%v/%v", r1.Err, r4.Err)
	}
	if r1.Ret != r4.Ret {
		t.Errorf("distribution changed results: %d vs %d", r1.Ret, r4.Ret)
	}
	if r4.VT <= r1.VT {
		t.Errorf("distribution should cost time: %d vs %d", r4.VT, r1.VT)
	}
}

func TestNodesAccessor(t *testing.T) {
	for _, c := range []struct{ configured, want int }{{7, 7}, {0, 1}} {
		res := New(Config{Nodes: c.configured}).Run(func(env *Env) { env.SetRet(uint64(env.Nodes())) }, 0)
		if res.Status != StatusHalted || res.Ret != uint64(c.want) {
			t.Errorf("Config{Nodes: %d}: Nodes() = %d (%v), want %d", c.configured, res.Ret, res.Status, c.want)
		}
	}
}

func TestFixedClockDevice(t *testing.T) {
	readings, next := []int64{10, 20, 30, 30}, 0
	m := New(Config{Clock: func() int64 { next++; return readings[next-1] }})
	res := m.Run(func(env *Env) {
		a, b, c, d := env.ClockNow(), env.ClockNow(), env.ClockNow(), env.ClockNow()
		if a != 10 || b != 20 || c != 30 || d != 30 {
			panic("fixed clock sequence wrong")
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}
