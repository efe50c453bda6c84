// Legacy: running unmodified lock-based code deterministically (§4.5).
//
// A classic producer/consumer job queue written with mutexes and
// condition variables — the kind of code the private workspace model
// deliberately excludes — runs under Determinator's deterministic
// scheduler: quantized execution, last-writer-wins quantum commits, and
// mutex ownership stealing. The program is racy by construction (workers
// contend for jobs), yet every run produces the identical job
// assignment, because "time" is an instruction count, not a wall clock.
//
// Run: go run ./examples/legacy
package main

import (
	"fmt"
	"os"

	repro "repro"
)

const (
	nWorkers = 3
	nJobs    = 12
)

func main() {
	assignment1 := run()
	assignment2 := run()
	fmt.Println("job -> worker assignments under the deterministic scheduler:")
	fmt.Printf("  run 1: %v\n", assignment1)
	fmt.Printf("  run 2: %v\n", assignment2)
	if fmt.Sprint(assignment1) != fmt.Sprint(assignment2) {
		fmt.Println("DIVERGED — this should be impossible")
		os.Exit(1)
	}
	fmt.Println("identical: lock acquisition order is repeatable, run after run.")
	fmt.Println("(On a conventional OS this assignment would vary with scheduling noise.)")
}

// run executes the job queue once and returns which worker took each job.
func run() []uint32 {
	var got []uint32
	sess, err := repro.NewSession(repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4}))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_, err = sess.RunProgram(repro.Program{Result: func(rt *repro.RT) uint64 {
		// Small quantum: plenty of preemption.
		s, err := repro.NewSchedWith(rt, repro.SchedConfig{Quantum: 2_000})
		if err != nil {
			panic(err)
		}
		mu := s.NewMutex()
		env := rt.Env()

		next := rt.Alloc(8, 8)            // next job index (mutex-protected)
		owners := rt.Alloc(4*nJobs, 4)    // job -> worker id + 1
		counts := rt.Alloc(4*nWorkers, 4) // jobs per worker
		env.WriteU64(next, 0)

		if err := s.Run(nWorkers, func(th *repro.SchedThread) {
			for {
				// Take a job under the lock.
				th.Lock(repro.Mutex(mu))
				job := th.Env().ReadU64(next)
				if job >= nJobs {
					th.Unlock(repro.Mutex(mu))
					return
				}
				th.Env().WriteU64(next, job+1)
				th.Env().WriteU32(owners+repro.Addr(4*job), uint32(th.ID+1))
				th.Unlock(repro.Mutex(mu))

				// "Process" the job: workers are deliberately uneven so a
				// real-time scheduler would interleave them unpredictably.
				th.Env().Tick(int64(500 * (th.ID + 1)))
				c := th.Env().ReadU32(counts + repro.Addr(4*th.ID))
				th.Env().WriteU32(counts+repro.Addr(4*th.ID), c+1)
			}
		}); err != nil {
			panic(err)
		}

		got = make([]uint32, nJobs)
		env.ReadU32s(owners, got)
		var sig uint64
		for _, v := range got {
			sig = sig*31 + uint64(v)
		}
		return sig
	}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	return got
}
