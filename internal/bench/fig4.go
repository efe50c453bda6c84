package bench

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/uproc"
)

// Fig4 reproduces the parallel-make scheduling scenario of Figure 4:
// three compile tasks of lengths 3, 1 and 2 units on two CPUs. With
// unlimited parallelism ('make -j') the system schedules them and the
// makespan is optimal. With a 2-worker quota ('make -j2') the build
// waits for one task before starting the third — but Determinator's
// wait() deterministically reports the earliest-forked child (task 1,
// length 3), not the first finisher (task 2, length 1), so task 3
// starts late and the makespan is the non-optimal schedule (d) of the
// figure. An oracle row shows what Unix's completion-order wait would
// have achieved.
func Fig4(o Options) Table {
	const unit = 1_000_000 // virtual instructions per task length unit
	lengths := []int64{3, 1, 2}

	makespan := func(scenario func(p *uproc.Proc) int) int64 {
		reg := uproc.NewRegistry()
		reg.Register("make", scenario)
		res := uproc.Boot(uproc.BootConfig{
			Kernel:   kernel.Config{CPUsPerNode: 2},
			Registry: reg,
		}, "make")
		if res.Run.Status != kernel.StatusHalted {
			panic(fmt.Sprintf("bench: fig4 make stopped with %v: %v", res.Run.Status, res.Run.Err))
		}
		return res.Run.VT
	}

	task := func(len64 int64) uproc.Program {
		return func(p *uproc.Proc) int {
			p.Env().Tick(len64 * unit)
			return 0
		}
	}

	// (b) 'make -j': start all three immediately; join all.
	unlimited := makespan(func(p *uproc.Proc) int {
		var pids []int
		for _, l := range lengths {
			pid, err := p.Fork(task(l))
			if err != nil {
				panic(err)
			}
			pids = append(pids, pid)
		}
		for _, pid := range pids {
			if _, _, err := p.Waitpid(pid); err != nil {
				panic(err)
			}
		}
		return 0
	})

	// (d) 'make -j2' on Determinator: start tasks 1 and 2, then wait() —
	// which returns the earliest-forked (task 1) — before starting 3.
	detJ2 := makespan(func(p *uproc.Proc) int {
		p1, _ := p.Fork(task(lengths[0]))
		p2, _ := p.Fork(task(lengths[1]))
		if pid, _, _, err := p.Wait(); err != nil || pid != p1 {
			panic("wait() did not return the earliest-forked child")
		}
		p3, _ := p.Fork(task(lengths[2]))
		p.Waitpid(p2)
		p.Waitpid(p3)
		return 0
	})

	// (c) 'make -j2' with Unix's completion-order wait: the short task 2
	// finishes first, so task 3 starts after 1 unit. We emulate the
	// oracle by waiting for task 2 explicitly — information a real
	// Determinator program could not obtain.
	unixJ2 := makespan(func(p *uproc.Proc) int {
		p1, _ := p.Fork(task(lengths[0]))
		p2, _ := p.Fork(task(lengths[1]))
		p.Waitpid(p2) // oracle: "task 2 finished first"
		p3, _ := p.Fork(task(lengths[2]))
		p.Waitpid(p1)
		p.Waitpid(p3)
		return 0
	})

	t := Table{
		ID:     "fig4",
		Title:  "parallel make scheduling: wait() semantics (tasks 3/1/2 units, 2 CPUs)",
		Header: []string{"scenario", "makespan-vt", "vs-unlimited"},
	}
	t.AddRow("make -j (unlimited)", iv(unlimited), f2(1))
	t.AddRow("make -j2, Unix wait (oracle)", iv(unixJ2), f2(float64(unixJ2)/float64(unlimited)))
	t.AddRow("make -j2, Determinator wait", iv(detJ2), f2(float64(detJ2)/float64(unlimited)))
	t.Note("Determinator's wait() cannot learn which task finished first, so -j2 schedules")
	t.Note("suboptimally — the paper's advice is to leave scheduling to the system ('make -j').")
	return t
}
