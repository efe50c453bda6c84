package kernel

import (
	"bytes"
	"testing"

	"repro/internal/vm"
)

// TestWaitReleasesEveryFrame: once Wait returns, every frame the machine
// made is back in its pool and handed on to the depot, so the pool counts
// none live, whatever the machine left behind — children never collected,
// parked ones, snapshots, a grandchild, a child still running when the
// root halted, a restored tree.
func TestWaitReleasesEveryFrame(t *testing.T) {
	const pages = 64
	region := uint64(pages * vm.PageSize)
	for _, c := range []struct {
		name string
		m    func() *Machine
		prog Prog
	}{
		{"tree", func() *Machine { return New(Config{CPUsPerNode: 2}) }, func(env *Env) {
			env.SetPerm(0, region, vm.PermRW)
			env.Write(0, bytes.Repeat([]byte{0xA5}, int(region)))
			for ref := uint64(1); ref <= 3; ref++ {
				err := env.Put(ref, PutOpts{CopyAll: true, Snap: true, Start: true, Regs: &Regs{Entry: func(c *Env) {
					c.WriteU32(vm.Addr(c.Arg()*vm.PageSize), uint32(c.Arg()))
					switch c.Arg() {
					case 1: // a grandchild left parked
						if err := c.Put(1, PutOpts{CopyAll: true, Snap: true, Start: true, Regs: &Regs{Entry: func(g *Env) {
							g.WriteU32(0, 9)
							g.Ret()
						}}}); err != nil {
							panic(err)
						}
						c.Ret()
					case 2: // parked, never collected
						c.Ret()
					}
				}, Arg: ref}})
				if err != nil {
					panic(err)
				}
			}
			if _, err := env.Get(3, GetOpts{Merge: true}); err != nil {
				panic(err)
			}
			env.Zero(0, vm.PageSize, vm.PermRW) // a page back to the pool mid-run
			if env.Footprint() == 0 {
				panic("the machine holds no frames")
			}
		}},
		{"runaway child", func() *Machine { return New(Config{}) }, func(env *Env) {
			// The child is still writing when the root halts: shutdown
			// waits for it, and only then may its memory be freed.
			err := env.Put(1, PutOpts{Start: true, Regs: &Regs{Entry: func(c *Env) {
				c.SetPerm(0, region, vm.PermRW)
				for r := 0; r < 400; r++ {
					c.Zero(0, region, vm.PermRW)
					for p := 0; p < pages; p++ {
						c.WriteU32(vm.Addr(p*vm.PageSize), uint32(r))
					}
				}
			}}})
			if err != nil {
				panic(err)
			}
		}},
		{"restored", func() *Machine {
			var img []byte
			New(ckConfig()).Run(ckProg(t, 0, func(env *Env, next int) bool {
				if next != 2 {
					return true
				}
				var err error
				if img, err = env.Checkpoint(CheckpointOpts{}); err != nil {
					t.Error(err)
				}
				return false
			}), 0)
			m := New(ckConfig())
			if err := m.Restore(img); err != nil {
				t.Fatal(err)
			}
			return m
		}, ckProg(t, 2, nil)},
	} {
		m := c.m()
		if res := m.Run(c.prog, 0); res.Status != StatusHalted {
			t.Fatalf("%s: root stopped with %v: %v", c.name, res.Status, res.Err)
		}
		if n := m.frames.Live(); n != 0 {
			t.Errorf("%s: %d frames still out after Wait", c.name, n)
		}
	}
}

// TestNextMachineStartsClean: a machine that ends with dirty frames —
// pages of 0xA5s, tables that map every slot — hands the next machine
// only cleared ones. The next machine's pages read zero around the words
// it stores, and a slot of its table it never mapped faults.
func TestNextMachineStartsClean(t *testing.T) {
	const span = 2 * vm.TableSpan
	dirty := New(Config{}).Run(func(env *Env) {
		env.SetPerm(0, span, vm.PermRW)
		env.Write(0, bytes.Repeat([]byte{0xA5}, int(span)))
	}, 0)
	if dirty.Status != StatusHalted {
		t.Fatalf("dirty machine: %v: %v", dirty.Status, dirty.Err)
	}
	var read bool
	next := New(Config{}).Run(func(env *Env) {
		const pages = int(span / vm.PageSize)
		env.SetPerm(0, span-vm.PageSize, vm.PermRW) // the last slot stays unmapped
		for p := 0; p < pages-1; p++ {
			env.WriteU32(vm.Addr(p*vm.PageSize+8), uint32(p))
		}
		got, want := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
		for p := 0; p < pages-1; p++ {
			env.Read(vm.Addr(p*vm.PageSize), got)
			want[8], want[9] = byte(p), byte(p>>8)
			if !bytes.Equal(got, want) {
				t.Fatalf("page %d of the next machine reads %x around its word", p, bytes.Trim(got, "\x00"))
			}
		}
		read = true
		env.Read(vm.Addr(span-vm.PageSize), got[:1])
	}, 0)
	if !read || next.Status != StatusFault {
		t.Fatalf("next machine: read %v, stopped with %v (%v); want a fault on the unmapped slot", read, next.Status, next.Err)
	}
}

// BenchmarkMachineLifecycle times a machine from New to Wait: a root that
// zeroes 16 MiB and stores one word in each of 32 pages spread over it.
// Each machine after the first takes its pages and tables from the frames
// the one before released, so B/op is the machine's own bookkeeping, not
// its memory (`make bench-smoke` runs it).
func BenchmarkMachineLifecycle(b *testing.B) {
	const (
		span  = 16 << 20
		pages = 32
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := New(Config{}).Run(func(env *Env) {
			env.Zero(0, span, vm.PermRW)
			for p := 0; p < pages; p++ {
				env.WriteU64(vm.Addr(p*(span/pages)), uint64(p))
			}
		}, 0)
		if res.Status != StatusHalted {
			b.Fatalf("%v: %v", res.Status, res.Err)
		}
	}
}
