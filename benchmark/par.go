package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/kernel"
	suite "repro/internal/workload"
)

// parWorkload is par_coarse or par_fine: one op is a pass over the
// paper suite's programs of that granularity, each run deterministically
// through repro.Run and followed at once by its goroutine twin from
// internal/baseline — det and baseline interleaved op by op, which is
// what makes wall_ratio (the paper's Figure 7 number) robust against
// host drift. The inputs are the suite's own fixed generators at
// Spec.DefaultSize; the seed does not vary them.
type parWorkload struct {
	grain    string // "coarse" or "fine"
	threads  int
	progs    []parProg
	verified int
}

type parProg struct {
	spec suite.Spec
	base func(threads, size int) uint64
	want uint64 // the program's checksum, from set-up
}

// runDet runs one program of the suite deterministically on a fresh
// machine with as many CPUs as threads.
func runDet(spec suite.Spec, threads int) (repro.RunResult, error) {
	size := spec.DefaultSize
	res := repro.Run(repro.Options{
		Kernel:     repro.MachineConfig{CPUsPerNode: threads},
		SharedSize: spec.SharedBytes(size),
	}, func(rt *repro.RT) uint64 { return spec.Det(rt, threads, size) })
	if res.Status != kernel.StatusHalted {
		return res, fmt.Errorf("%s stopped with %v: %v", spec.Name, res.Status, res.Err)
	}
	return res, nil
}

// pass is one op. It returns the pass's wall time in ms; a program
// whose deterministic checksum differs from its baseline's fails the op.
func (p *parWorkload) pass(w *window, tr *tracer, op int) (float64, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	start := time.Now()
	for _, pr := range p.progs {
		id := tr.begin("repro.run."+pr.spec.Name, op, root)
		cpu, t0 := selfCPU(), time.Now()
		res, err := runDet(pr.spec, p.threads)
		det := time.Since(t0)
		w.CPU += selfCPU() - cpu // the deterministic runs' CPU, not the twins'
		tr.end(id)
		if err != nil {
			return 0, err
		}
		id = tr.begin("baseline."+pr.spec.Name, op, root)
		t0 = time.Now()
		want := pr.base(p.threads, pr.spec.DefaultSize)
		base := time.Since(t0)
		tr.end(id)
		if res.Ret != want || want != pr.want {
			return 0, fmt.Errorf("%s: deterministic checksum %#x, goroutine twin %#x, set-up %#x",
				pr.spec.Name, res.Ret, want, pr.want)
		}
		p.verified++
		w.sample("num:"+pr.spec.Name, ms(det))
		w.sample("den:"+pr.spec.Name, ms(base))
	}
	return ms(time.Since(start)), nil
}

// setup resolves the programs and computes each one's checksum with its
// twin on one thread: a result is a pure function of the problem size,
// whatever the thread count. (One thread, because on the development
// host single-threaded compute is the one thing whose speed does not
// drift, and setup_s has no reference to be divided by.)
func (p *parWorkload) setup(c *runConfig) error {
	p.threads = c.threads
	p.progs = nil
	bases := baseline.Baselines()
	for _, spec := range suite.Specs() {
		if spec.Granularity == p.grain {
			base := bases[spec.Name]
			p.progs = append(p.progs, parProg{spec: spec, base: base, want: base(1, spec.DefaultSize)})
		}
	}
	if len(p.progs) == 0 {
		return fmt.Errorf("no %s-grained programs in the suite", p.grain)
	}
	return nil
}

func (p *parWorkload) teardown() {}

func (p *parWorkload) run(_ mode, d time.Duration, tr *tracer) *window {
	w := &window{}
	start := time.Now()
	op := 0
	loop(w, d, func() (float64, error) {
		op++
		return p.pass(w, tr, op)
	})
	w.Wall = time.Since(start).Seconds()
	return w
}

func (p *parWorkload) finish() (int, error) { return p.verified, nil }

func (p *parWorkload) layer(map[string]float64) {}
