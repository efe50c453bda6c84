package vm_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// churn is a root program for the depot tests: it dirties 256 words of
// two level-2 tables, waits at gate (when not nil), then forks three
// children with snapshots — the first halts, the second returns and
// stays parked, the third starts a grandchild it never collects — each
// writing its own eighth of the memory, merges the three, and returns an
// FNV-1a hash of all of it.
func churn(seed int64, gate <-chan struct{}) kernel.Prog {
	const span = 2 * vm.TableSpan
	return func(env *kernel.Env) {
		rng := rand.New(rand.NewSource(seed))
		env.SetPerm(0, span, vm.PermRW)
		for i := 0; i < 256; i++ {
			env.WriteU32(vm.Addr(rng.Intn(int(span/4))*4), rng.Uint32())
		}
		if gate != nil {
			<-gate
		}
		for ref := uint64(1); ref <= 3; ref++ {
			err := env.Put(ref, kernel.PutOpts{CopyAll: true, Snap: true, Start: true, Regs: &kernel.Regs{Arg: ref, Entry: func(c *kernel.Env) {
				base := vm.Addr(c.Arg() * span / 8)
				for i := 0; i < 64; i++ {
					c.WriteU32(base+vm.Addr(i*vm.PageSize+4*i), uint32(seed)+uint32(i))
				}
				switch c.Arg() {
				case 2:
					c.Ret()
				case 3:
					if err := c.Put(1, kernel.PutOpts{CopyAll: true, Start: true, Regs: &kernel.Regs{Entry: func(g *kernel.Env) {
						g.Write(0, bytes.Repeat([]byte{0xA5}, 16*vm.PageSize))
					}}}); err != nil {
						panic(err)
					}
				}
			}}})
			if err != nil {
				panic(err)
			}
		}
		for ref := uint64(1); ref <= 3; ref++ {
			if _, err := env.Get(ref, kernel.GetOpts{Merge: true}); err != nil {
				panic(err)
			}
		}
		h := uint64(14695981039346656037)
		env.ReadRuns(0, int(span), func(b []byte) {
			for _, c := range b {
				h = (h ^ uint64(c)) * 1099511628211
			}
		}, func(n int) {
			for ; n > 0; n-- {
				h *= 1099511628211
			}
		})
		env.SetRet(h)
	}
}

// TestMachineEndsKeepDepotClean: every frame a kernel machine's end hands
// the depot is cleared, unreferenced and held once (vm.CheckDepot), and
// none is a frame of a machine still running: one parked mid-program
// while others end and stock the depot, then drawing on it, computes
// exactly what it computes alone.
func TestMachineEndsKeepDepotClean(t *testing.T) {
	cfg := kernel.Config{CPUsPerNode: 2}
	alone := kernel.New(cfg).Run(churn(7, nil), 0)
	if alone.Status != kernel.StatusHalted {
		t.Fatalf("alone: %v: %v", alone.Status, alone.Err)
	}
	if err := vm.CheckDepot(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	live := kernel.New(cfg)
	live.Start(churn(7, gate), 0)
	for seed := int64(1); seed <= 4; seed++ {
		if res := kernel.New(cfg).Run(churn(seed, nil), 0); res.Status != kernel.StatusHalted {
			t.Fatalf("seed %d: %v: %v", seed, res.Status, res.Err)
		}
		if err := vm.CheckDepot(); err != nil {
			t.Fatalf("after seed %d: %v", seed, err)
		}
	}
	close(gate)
	if got := live.Wait(); got != alone {
		t.Errorf("beside other machines' ends: %+v; alone %+v", got, alone)
	}
	if err := vm.CheckDepot(); err != nil {
		t.Fatal(err)
	}
}
