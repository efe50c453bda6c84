package vm_test

import (
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workload"
)

// footprintAtBarriers steps p one phase at a time on s and, at every
// barrier it rests at, holds three counts of one forest to each other:
// StepResult.Pages, which is vm.Footprint of the live machine; and
// vm.Footprint and the slot-by-slot walk of the forest decoded from the
// image captured at that barrier (s must capture one after every phase).
// The image lists the live forest's spaces and preserves their sharing
// graph, and its encoder refuses a backed slot the occupancy map does not
// list, so the walk of the decoded forest is the live forest's true
// count; the decoded tables were filled by DecodeForest, so its install
// path is held to the walk as well. It returns the barriers compared.
func footprintAtBarriers(t *testing.T, s *repro.Session, p repro.Program) int {
	t.Helper()
	compared := 0
	for {
		sr, err := s.Step(1)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		for _, img := range s.Checkpoints() {
			_, forest, err := kernel.SplitImage(img.Kernel)
			if err != nil {
				t.Fatalf("barrier %d: %v", img.Phase, err)
			}
			spaces, err := vm.DecodeForest(forest)
			if err != nil {
				t.Fatalf("barrier %d: %v", img.Phase, err)
			}
			walk := vm.FootprintWalk(spaces)
			if got := vm.Footprint(spaces); got != walk {
				t.Errorf("barrier %d: Footprint of the decoded forest %d, slot walk %d", img.Phase, got, walk)
			}
			if !sr.Done && img.Phase == sr.Phase {
				if sr.Pages != walk {
					t.Errorf("barrier %d: live Footprint %d, slot walk of its image %d", sr.Phase, sr.Pages, walk)
				}
				compared++
			}
		}
		if sr.Done {
			return compared
		}
	}
}

// everyBarrier is the session option that captures after every phase.
func everyBarrier(phases int) repro.SessionOption {
	ks := make([]int, phases)
	for i := range ks {
		ks[i] = i + 1
	}
	return repro.WithCheckpointAfter(ks...)
}

// TestFootprintMatchesWalk: the occupancy map Footprint reads is kept by
// table.set at every place a page pointer moves; this holds the
// result to the walk that reads the pointers themselves, over forests
// real programs build — fork and join with private workspaces, dsched's
// quantum snapshots, kvstore's file-system replicas — and over a machine
// rebuilt from a store.
func TestFootprintMatchesWalk(t *testing.T) {
	machine := repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4})
	run := func(name string, p repro.Program, opts ...repro.SessionOption) {
		t.Run(name, func(t *testing.T) {
			s, err := repro.NewSession(append(opts, machine, everyBarrier(p.Phases))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Bind(p); err != nil {
				t.Fatal(err)
			}
			if n := footprintAtBarriers(t, s, p); n != p.Phases-1 {
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
		s, err := repro.NewSession(machine, everyBarrier(p.Phases))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(3); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Suspend(repro.NewMemStore()); err != nil {
			t.Fatal(err)
		}
		if n := footprintAtBarriers(t, s, p); n != p.Phases-1-3 {
			t.Errorf("compared %d barriers after the resume, want %d", n, p.Phases-1-3)
		}
	})
}
