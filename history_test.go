package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro"
	"repro/internal/serve"
)

// A resting session's image is a function of the program and the
// barrier alone, whatever history brought the session there. At every
// barrier k three histories must rest in byte-equal images: the one-shot
// RunToCheckpoint(p, k); a run suspended to the store after every
// one-phase slice, so that each slice resumes from the last; and, for
// every earlier barrier j, that run's manifest at j admitted with
// BindSuspended and stepped to k in one slice. This is what
// Session.Digest promises: a function of the program and the barrier.
func TestSessionImageIndependentOfHistory(t *testing.T) {
	machine := func(nodes, cpus int) []repro.SessionOption {
		return []repro.SessionOption{repro.WithMachine(repro.MachineConfig{Nodes: nodes, CPUsPerNode: cpus})}
	}
	roundRobin := func(nodes int) func(int) int { return func(i int) int { return i % nodes } }
	for _, c := range []struct {
		name string
		opts []repro.SessionOption
		p    func(t *testing.T) repro.Program
	}{
		{"array/1-node", machine(1, 2), func(*testing.T) repro.Program {
			return repro.ArrayProgram(6, 4, 2048, -1, roundRobin(1))
		}},
		{"array/2-node", machine(2, 2), func(*testing.T) repro.Program {
			return repro.ArrayProgram(6, 4, 2048, -1, roundRobin(2))
		}},
		{"array/3-node", machine(3, 2), func(*testing.T) repro.Program {
			return repro.ArrayProgram(6, 4, 2048, -1, roundRobin(3))
		}},
		{"uproc", nil, func(*testing.T) repro.Program { return repro.UprocTestProgram() }},
		{"dsched", machine(1, 4), func(t *testing.T) repro.Program { return repro.DschedProgram(t, 3, 4) }},
		{"device", []repro.SessionOption{repro.WithRecord()}, func(*testing.T) repro.Program {
			return repro.DeviceProgram(3, 4)
		}},
		{"sparse", machine(1, 2), func(*testing.T) repro.Program { return repro.SparseProgram(3, 64, 4, 0) }},
		{"stripe", machine(1, 4), func(*testing.T) repro.Program { return serve.StripeProgram(4, 8, 1024)(7) }},
	} {
		t.Run(c.name, func(t *testing.T) { checkHistories(t, c.opts, c.p(t)) })
	}
}

// checkHistories holds p's three histories to one image per barrier.
func checkHistories(t *testing.T, opts []repro.SessionOption, p repro.Program) {
	session := func() *repro.Session {
		s, err := repro.NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := make([][]byte, p.Phases+1)
	for k := 1; k <= p.Phases; k++ {
		img, err := session().RunToCheckpoint(p, k)
		if err != nil {
			t.Fatalf("RunToCheckpoint(%d): %v", k, err)
		}
		if want[k], err = img.Bytes(); err != nil {
			t.Fatal(err)
		}
	}

	store := repro.NewMemStore()
	evicted := make([]*repro.Manifest, p.Phases+1)
	s := session()
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= p.Phases; k++ {
		if _, err := s.Step(1); err != nil {
			t.Fatalf("evicted run, step to %d: %v", k, err)
		}
		evicted[k] = suspendImage(t, s, store, "evicted after every slice", k, want[k])
	}
	s.Close()

	for k := 2; k <= p.Phases; k++ {
		for j := 1; j < k; j++ {
			s := session()
			if err := s.BindSuspended(p, store, evicted[j]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Step(k - j); err != nil {
				t.Fatalf("admitted at %d, step to %d: %v", j, k, err)
			}
			suspendImage(t, s, store, fmt.Sprintf("admitted at barrier %d", j), k, want[k])
			s.Close()
		}
	}
}

// suspendImage suspends s, resting at barrier k, into store and requires
// the saved image to equal want byte for byte; history names how s got
// there.
func suspendImage(t *testing.T, s *repro.Session, store repro.BlobStore, history string, k int, want []byte) *repro.Manifest {
	t.Helper()
	m, err := s.Suspend(store)
	if err != nil {
		t.Fatalf("%s: suspend at %d: %v", history, k, err)
	}
	img, err := repro.LoadImage(store, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: image at barrier %d differs from RunToCheckpoint's at byte %d (%d vs %d bytes)",
			history, k, i, len(got), len(want))
	}
	return m
}
