package vm_test

import (
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
