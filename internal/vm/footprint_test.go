package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workload"
)

// footprintAtBarriers holds three counts of one forest to each other at
// every barrier after from: StepResult.Pages, which is vm.Footprint of
// the live machine; and vm.Footprint and the slot-by-slot walk of the
// forest decoded from the image Suspend captures there. Each barrier k
// gets a session of its own from open — bound, resting at barrier from —
// stepped to k and suspended into store (which holds the manifest a
// suspended one is bound to), so every image is of a machine with the
// history the session's Pages reports on. The image lists the live
// forest's spaces and preserves their sharing graph, and its encoder
// refuses a backed slot the occupancy map does not list, so the walk of
// the decoded forest is the live forest's true count; the decoded tables
// were filled by DecodeForest, so its install path is held to the walk as
// well. It returns the barriers compared.
func footprintAtBarriers(t *testing.T, open func() *repro.Session, store repro.BlobStore, from, phases int) int {
	t.Helper()
	compared := 0
	for k := from + 1; k <= phases; k++ {
		s := open()
		sr, err := s.Step(k - from)
		if err != nil {
			t.Fatalf("step to %d: %v", k, err)
		}
		m, err := s.Suspend(store)
		if err != nil {
			t.Fatalf("barrier %d: %v", k, err)
		}
		s.Close()
		img, err := repro.LoadImage(store, m)
		if err != nil {
			t.Fatalf("barrier %d: %v", k, err)
		}
		_, forest, err := kernel.SplitImage(img.Kernel)
		if err != nil {
			t.Fatalf("barrier %d: %v", k, err)
		}
		spaces, err := vm.DecodeForest(forest)
		if err != nil {
			t.Fatalf("barrier %d: %v", k, err)
		}
		walk := vm.FootprintWalk(spaces)
		if got := vm.Footprint(spaces); got != walk {
			t.Errorf("barrier %d: Footprint of the decoded forest %d, slot walk %d", k, got, walk)
		}
		if !sr.Done {
			if sr.Pages != walk {
				t.Errorf("barrier %d: live Footprint %d, slot walk of its image %d", k, sr.Pages, walk)
			}
			compared++
		}
	}
	return compared
}

// TestFootprintMatchesWalk: the occupancy map Footprint reads is kept by
// table.set at every place a page pointer moves; this holds the
// result to the walk that reads the pointers themselves, over forests
// real programs build — fork and join with private workspaces, dsched's
// quantum snapshots, kvstore's file-system replicas — and over a machine
// rebuilt from a store.
func TestFootprintMatchesWalk(t *testing.T) {
	machine := repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4})
	// session returns an unbound session with opts and the machine.
	session := func(t *testing.T, opts ...repro.SessionOption) *repro.Session {
		s, err := repro.NewSession(append(opts, machine)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(name string, p repro.Program, opts ...repro.SessionOption) {
		t.Run(name, func(t *testing.T) {
			open := func() *repro.Session {
				s := session(t, opts...)
				if err := s.Bind(p); err != nil {
					t.Fatal(err)
				}
				return s
			}
			if n := footprintAtBarriers(t, open, repro.NewMemStore(), 0, p.Phases); n != p.Phases-1 {
				t.Errorf("compared %d barriers of %d", n, p.Phases-1)
			}
		})
	}

	// The seven par_* programs: two runs and an idle phase, so the
	// session rests after each run with the program's forest standing.
	sizes := map[string]int{
		"md5": 1 << 10, "matmult": 32, "qsort": 1 << 11,
		"blackscholes": 1 << 9, "fft": 1 << 9, "lu_cont": 64, "lu_noncont": 64,
	}
	for _, spec := range workload.Specs() {
		size := sizes[spec.Name]
		run(spec.Name, repro.Program{
			Phases: 3,
			Phase: func(rt *repro.RT, k int) error {
				if k < 2 {
					spec.Det(rt, 3, size)
				}
				return nil
			},
		}, repro.WithSharedSize(4*spec.SharedBytes(size)))
	}

	// A dsched run: one scheduler carried across four phases of
	// mutex-protected read-modify-writes.
	var sched *repro.Sched
	var mu repro.Mutex
	var cell repro.Addr
	run("dsched", repro.Program{
		Phases: 4,
		Layout: func(rt *repro.RT) { cell = rt.Alloc(8, 8) },
		Init: func(rt *repro.RT) {
			var err error
			if sched, err = repro.NewSchedWith(rt, repro.SchedConfig{Quantum: 3000}); err != nil {
				panic(err)
			}
			mu = sched.NewMutex()
		},
		Phase: func(rt *repro.RT, k int) error {
			return sched.Run(3, func(st *repro.SchedThread) {
				for i := 0; i < 4; i++ {
					st.Lock(mu)
					st.Env().WriteU64(cell, st.Env().ReadU64(cell)*31+uint64(st.ID+k)+1)
					st.Unlock(mu)
					st.Yield()
				}
			})
		},
	})

	run("kvstore", repro.Program{
		Phases: 2,
		Phase: func(rt *repro.RT, k int) error {
			if k == 0 {
				workload.KVStore(rt, workload.KVConfig{Rounds: 2})
			}
			return nil
		},
	}, repro.WithSharedSize(4<<20))

	// A resumed stripe session: detserved's program, suspended into a
	// store after three phases, so every later barrier is a machine whose
	// tables DecodeForest filled and the program then wrote through.
	t.Run("stripe-resumed", func(t *testing.T) {
		p := serve.StripeProgram(4, 8, 1024)(7)
		s := session(t)
		defer s.Close()
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(3); err != nil {
			t.Fatal(err)
		}
		store := repro.NewMemStore()
		m, err := s.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}
		open := func() *repro.Session {
			s := session(t)
			if err := s.BindSuspended(p, store, m); err != nil {
				t.Fatal(err)
			}
			return s
		}
		if n := footprintAtBarriers(t, open, store, 3, p.Phases); n != p.Phases-1-3 {
			t.Errorf("compared %d barriers after the resume, want %d", n, p.Phases-1-3)
		}
	})
}

// TestLiveCountMatchesWalk: Env.Footprint counts the frames the machine's
// pool has out instead of walking the forest, so every path that takes
// or drops a page or table must leave that count equal to the walk. This
// holds it to the slot walk of the forest the checkpoint image lists, at
// every quiescent root point of random kernel scripts on 1- and 2-node
// machines — Put and Get with Copy, CopyAll, Snap, Merge, Zero and Perm,
// children that fork grandchildren and leave them running — and through
// a Checkpoint→Restore round trip, after which the script runs on.
func TestLiveCountMatchesWalk(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := kernel.Config{Nodes: nodes, CPUsPerNode: 2}
			var img []byte
			res := kernel.New(cfg).Run(func(env *kernel.Env) {
				sc := &liveScript{t: t, rng: rand.New(rand.NewSource(seed)), nodes: nodes}
				env.SetPerm(liveBase, liveSize, vm.PermRW)
				sc.steps(env, 24)
				var err error
				if img, err = env.Checkpoint(kernel.CheckpointOpts{}); err != nil {
					panic(err)
				}
			}, 0)
			if res.Status != kernel.StatusHalted {
				t.Fatalf("%d nodes, seed %d: %v %v", nodes, seed, res.Status, res.Err)
			}
			m := kernel.New(cfg)
			if err := m.Restore(img); err != nil {
				t.Fatal(err)
			}
			res = m.Run(func(env *kernel.Env) {
				sc := &liveScript{t: t, rng: rand.New(rand.NewSource(-seed)), nodes: nodes}
				sc.check(env, "restored")
				sc.steps(env, 12)
			}, 0)
			if res.Status != kernel.StatusHalted {
				t.Fatalf("%d nodes, seed %d, restored: %v %v", nodes, seed, res.Status, res.Err)
			}
		}
	}
}

// The scripts' memory: 32 pages astride the boundary between level-2
// tables 0 and 1, so page-granular operations split tables and a
// table-aligned one shares table 1 whole.
const (
	liveBase = vm.Addr(vm.TableSpan) - 16*vm.PageSize
	liveSize = 32 * vm.PageSize
)

// liveScript draws random kernel operations and checks the live count
// after each one.
type liveScript struct {
	t     *testing.T
	rng   *rand.Rand
	nodes int
	step  int
}

// span draws a page-aligned range inside the scripts' memory.
func (sc *liveScript) span() kernel.Range {
	first := sc.rng.Intn(32)
	n := 1 + sc.rng.Intn(32-first)
	return kernel.Range{Addr: liveBase + vm.Addr(first*vm.PageSize), Size: uint64(n * vm.PageSize)}
}

// writer returns an entry that stores a few words at drawn addresses
// and, when fork is set, starts a grandchild that does the same and
// halts without waiting for it.
func (sc *liveScript) writer(fork bool) func(*kernel.Env) {
	var addrs [4]vm.Addr
	for i := range addrs {
		addrs[i] = liveBase + vm.Addr(4*sc.rng.Intn(liveSize/4))
	}
	grand := func(*kernel.Env) {}
	if fork {
		grand = sc.writer(false)
	}
	return func(env *kernel.Env) {
		for i, a := range addrs {
			env.WriteU32(a, uint32(i+1))
		}
		if fork {
			if err := env.Put(1, kernel.PutOpts{Regs: &kernel.Regs{Entry: grand}, CopyAll: true, Snap: true, Start: true}); err != nil {
				panic(err)
			}
		}
	}
}

// steps runs n random operations, checking the live count after each.
// Errors a drawn operation may legitimately return — a merge conflict,
// a merge of a child with no snapshot — are part of the script.
func (sc *liveScript) steps(env *kernel.Env, n int) {
	for i := 0; i < n; i++ {
		child := kernel.ChildOn(sc.rng.Intn(sc.nodes), uint64(1+sc.rng.Intn(3)))
		regs := &kernel.Regs{Entry: sc.writer(sc.rng.Intn(4) == 0)}
		r := sc.span()
		op := sc.rng.Intn(9)
		switch op {
		case 0:
			env.SetPerm(liveBase, liveSize, vm.PermRW) // a Get may have taken it away
			env.WriteU32(liveBase+vm.Addr(4*sc.rng.Intn(liveSize/4)), uint32(i))
		case 1:
			env.Put(child, kernel.PutOpts{Regs: regs, CopyAll: true, Snap: true, Start: true})
		case 2:
			env.Put(child, kernel.PutOpts{Regs: regs, Copy: &kernel.CopyRange{Src: r.Addr, Dst: r.Addr, Size: r.Size}, Snap: true, Start: true})
		case 3:
			tbl := kernel.CopyRange{Src: vm.Addr(vm.TableSpan), Dst: vm.Addr(vm.TableSpan), Size: vm.TableSpan}
			env.Put(child, kernel.PutOpts{Regs: regs, Copy: &tbl, Snap: true, Start: true})
		case 4:
			env.Get(child, kernel.GetOpts{Merge: true})
		case 5:
			env.Get(child, kernel.GetOpts{Copy: &kernel.CopyRange{Src: r.Addr, Dst: r.Addr, Size: r.Size}})
		case 6:
			env.Get(child, kernel.GetOpts{CopyAll: true})
		case 7:
			z := &kernel.PermRange{Range: r, Perm: vm.PermRW}
			if sc.rng.Intn(2) == 0 {
				env.Put(child, kernel.PutOpts{Zero: z})
			} else {
				env.Get(child, kernel.GetOpts{Zero: z})
			}
		case 8:
			p := &kernel.PermRange{Range: r, Perm: vm.Perm(sc.rng.Intn(4))}
			if sc.rng.Intn(2) == 0 {
				env.Put(child, kernel.PutOpts{Perm: p})
			} else {
				env.Get(child, kernel.GetOpts{Perm: p})
			}
		}
		sc.check(env, fmt.Sprint("op ", op))
	}
}

// check compares the live count with the slot walk of the forest the
// machine's checkpoint image lists.
func (sc *liveScript) check(env *kernel.Env, what string) {
	sc.step++
	live := env.Footprint()
	img, err := env.Checkpoint(kernel.CheckpointOpts{})
	if err != nil {
		panic(err)
	}
	_, forest, err := kernel.SplitImage(img)
	if err != nil {
		panic(err)
	}
	spaces, err := vm.DecodeForest(forest)
	if err != nil {
		panic(err)
	}
	if walk := vm.FootprintWalk(spaces); live != walk {
		sc.t.Errorf("%d nodes, step %d (%s): live count %d, slot walk %d", sc.nodes, sc.step, what, live, walk)
	}
}
