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
