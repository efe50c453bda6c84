package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/vm"
)

// TestResidencyMatchesModel holds the read-only page caches of §3.3 to a
// model small enough to check by eye: each page maps to the set of nodes
// holding a clean copy of it, and every page starts clean at node 0, the
// root's home. A read on node n fetches the page unless n holds it and
// then holds it; a write on n fetches it unless n holds it, and then n
// alone holds it. The root wanders a 2- or 3-node cluster by Put and Get
// of empty children named on each node — no Copy, no Merge, so no page
// moves but the ones it touches — and its NetStats.Pages must equal the
// model's after every step.
func TestResidencyMatchesModel(t *testing.T) {
	const pages = 24
	for _, nodes := range []int{2, 3} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(nodes)))
			res := New(Config{Nodes: nodes}).Run(func(env *Env) {
				env.SetPerm(0, pages*vm.PageSize, vm.PermRW)
				clean := make([]map[int]bool, pages)
				for p := range clean {
					clean[p] = map[int]bool{0: true}
				}
				var want int64
				check := func(step int, what string) {
					if got := env.NetStats().Pages; got != want {
						t.Errorf("%d nodes, seed %d, step %d (%s): root shipped %d pages, model %d",
							nodes, seed, step, what, got, want)
					}
				}
				at := 0
				for step := 0; step < 40; step++ {
					if rng.Intn(3) == 0 {
						at = rng.Intn(nodes)
						ref := ChildOn(at, 1)
						var err error
						if rng.Intn(2) == 0 {
							err = env.Put(ref, PutOpts{})
						} else {
							_, err = env.Get(ref, GetOpts{})
						}
						if err != nil {
							t.Errorf("migrate to node %d: %v", at, err)
							return
						}
						check(step, "migrate")
						continue
					}
					lo := rng.Intn(pages)
					hi := lo + rng.Intn(min(6, pages-lo))
					addr := vm.Addr(lo)*vm.PageSize + vm.Addr(rng.Intn(vm.PageSize/2))
					buf := make([]byte, int(vm.Addr(hi+1)*vm.PageSize-addr)-rng.Intn(vm.PageSize/2))
					write := rng.Intn(2) == 0
					for p := lo; p <= hi; p++ {
						if !clean[p][at] {
							want++
						}
						if write {
							clean[p] = map[int]bool{at: true}
						} else {
							clean[p][at] = true
						}
					}
					if write {
						rng.Read(buf)
						env.Write(addr, buf)
						check(step, "write")
					} else {
						env.Read(addr, buf)
						check(step, "read")
					}
				}
			}, 0)
			if res.Status != StatusHalted {
				t.Fatalf("%d nodes, seed %d: %v %v", nodes, seed, res.Status, res.Err)
			}
		}
	}
}

// TestGetWritesLeaveOtherCaches: every page a Get writes into the caller
// — a merge's, a Copy's, a Zero's, a CopyAll's — leaves the caller's
// caches on the other nodes, as a store there would. The root reads page
// 0 on node 2, writes it through a Get on node 1, returns to node 2 and
// reads it again: the bytes are the new ones, and they cost a page.
func TestGetWritesLeaveOtherCaches(t *testing.T) {
	const region = 4 * vm.PageSize
	for _, c := range []struct {
		name string
		get  GetOpts
		want uint32
	}{
		{"merge", GetOpts{Merge: true, MergeRange: &Range{0, region}}, 42},
		{"copy", GetOpts{Copy: &CopyRange{Src: 0, Dst: 0, Size: vm.PageSize}}, 42},
		{"zero", GetOpts{Zero: &PermRange{Range{0, vm.PageSize}, vm.PermRW}}, 0},
		{"copyall", GetOpts{CopyAll: true}, 42},
	} {
		res := New(Config{Nodes: 3}).Run(func(env *Env) {
			env.SetPerm(0, region, vm.PermRW)
			env.WriteU32(0, 7)
			visit := func(n int) {
				if _, err := env.Get(ChildOn(n, 9), GetOpts{}); err != nil {
					panic(err)
				}
			}
			visit(2)
			if env.ReadU32(0) != 7 {
				panic("node 2 read the wrong bytes")
			}
			err := env.Put(ChildOn(1, 1), PutOpts{
				Copy:  &CopyRange{Src: 0, Dst: 0, Size: region},
				Snap:  true,
				Start: true,
				Regs:  &Regs{Entry: func(c *Env) { c.WriteU32(0, 42) }},
			})
			if err != nil {
				panic(err)
			}
			if _, err := env.Get(ChildOn(1, 1), c.get); err != nil {
				panic(err)
			}
			visit(2)
			before := env.NetStats().Pages
			if got := env.ReadU32(0); got != c.want {
				t.Errorf("%s: node 2 read %d, want %d", c.name, got, c.want)
			}
			if got := env.NetStats().Pages - before; got != 1 {
				t.Errorf("%s: the read on node 2 shipped %d pages, want 1", c.name, got)
			}
		}, 0)
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v %v", c.name, res.Status, res.Err)
		}
	}
}

// TestPutWritesLeaveChildCaches: a Put writes its child on the caller's
// node, and the child's copies of those pages cached on other nodes go
// stale. The child, homed on node 1, reads page 0 on node 2 (where it
// moved to reach a grandchild) and Rets; the root zeroes the page from
// node 1 and resumes it, and its next read of the page on node 2 costs a
// page.
func TestPutWritesLeaveChildCaches(t *testing.T) {
	res := New(Config{Nodes: 3}).Run(func(env *Env) {
		env.SetPerm(0, vm.PageSize, vm.PermRW)
		env.WriteU32(0, 7)
		child := ChildOn(1, 1)
		err := env.Put(child, PutOpts{
			CopyAll: true,
			Start:   true,
			Regs: &Regs{Entry: func(c *Env) {
				if _, err := c.Get(ChildOn(2, 1), GetOpts{}); err != nil {
					panic(err)
				}
				c.ReadU32(0)
				c.Ret()
				before := c.NetStats().Pages
				c.SetRet(uint64(c.ReadU32(0))<<32 | uint64(c.NetStats().Pages-before))
			}},
		})
		if err != nil {
			panic(err)
		}
		if err := env.Put(child, PutOpts{Zero: &PermRange{Range{0, vm.PageSize}, vm.PermRW}, Start: true}); err != nil {
			panic(err)
		}
		info, err := env.Get(child, GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		if v, pages := info.Regs.Ret>>32, info.Regs.Ret&0xFFFF_FFFF; v != 0 || pages != 1 {
			t.Errorf("the resumed child read %d shipping %d pages, want 0 and 1", v, pages)
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v %v", res.Status, res.Err)
	}
}
