// Actors: the paper's Figure 1 — a lock-step time-step simulation (a
// game, a particle system) where the main thread forks one child per
// actor each step; every child examines the state of nearby actors and
// updates its own actor in place.
//
// Under conventional threads this has a read/write race: a child might
// see an arbitrary mix of old and new neighbour states. Under the
// private workspace model every child reads its own pre-fork replica,
// so the program below is exactly the paper's pseudocode, race-free,
// with no copying or extra synchronization.
//
// The simulation here is a ring of cellular "actors" following a
// parity automaton; after every step the program verifies against a
// sequential reference.
//
// Run: go run ./examples/actors
package main

import (
	"fmt"
	"os"

	repro "repro"
)

const (
	nactors = 32
	steps   = 8
)

func main() {
	sess, err := repro.NewSession(repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4}))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := sess.RunProgram(repro.Program{Result: simulate})
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine stopped:", err)
		os.Exit(1)
	}
	if res.Ret != 1 {
		fmt.Fprintln(os.Stderr, "simulation diverged from the sequential reference")
		os.Exit(1)
	}
	fmt.Println("parallel simulation matched the sequential reference at every step")
}

func simulate(rt *repro.RT) uint64 {
	env := rt.Env()
	actors := rt.Alloc(4*nactors, 4)

	state := make([]uint32, nactors)
	for i := range state {
		state[i] = uint32(i % 5)
	}
	env.WriteU32s(actors, state)
	ref := append([]uint32(nil), state...)

	for time := 0; time < steps; time++ {
		// Fork one child per actor (Figure 1's inner loop).
		for i := 0; i < nactors; i++ {
			i := i
			if err := rt.Fork(i, func(t *repro.Thread) uint64 {
				// Examine the state of nearby actors...
				all := make([]uint32, nactors)
				t.Env().ReadU32s(actors, all)
				left := all[(i+nactors-1)%nactors]
				right := all[(i+1)%nactors]
				// ...and update our actor in place, no synchronization.
				t.Env().WriteU32(actors+repro.Addr(4*i), step(left, all[i], right))
				return 0
			}); err != nil {
				panic(err)
			}
		}
		for i := 0; i < nactors; i++ {
			if _, err := rt.Join(i); err != nil {
				panic(err)
			}
		}

		// Sequential reference for the same step.
		next := make([]uint32, nactors)
		for i := range ref {
			next[i] = step(ref[(i+nactors-1)%nactors], ref[i], ref[(i+1)%nactors])
		}
		ref = next

		got := make([]uint32, nactors)
		env.ReadU32s(actors, got)
		line := make([]byte, nactors)
		for i, v := range got {
			if v != ref[i] {
				return 0
			}
			line[i] = " .:*#"[v%5]
		}
		fmt.Printf("t=%2d  %s\n", time+1, line)
	}
	return 1
}

// step is the actor update rule: a small nonlinear mix of the
// neighbourhood, the kind of thing a game would do per entity.
func step(left, self, right uint32) uint32 {
	return (left*3 + self*self + right*7 + 1) % 5
}
