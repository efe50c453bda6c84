package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Quick shrinks problem sizes for CI-speed runs (used by the test
	// suite and testing.B integration); full size reproduces the paper's
	// regime more faithfully.
	Quick bool
	// CPUs is the modelled core count for Figures 7/8 (paper: 12).
	CPUs int
}

func (o Options) cpus() int {
	if o.CPUs > 0 {
		return o.CPUs
	}
	return 12
}

// size picks a problem size for a spec under the current options.
func (o Options) size(spec workload.Spec) int {
	if !o.Quick {
		return spec.DefaultSize
	}
	switch spec.Name {
	case "matmult":
		return 64
	case "lu_cont", "lu_noncont":
		return 64
	case "qsort":
		return 1 << 13
	default:
		return 1 << 11
	}
}

// Measurement is one deterministic-run data point.
type Measurement struct {
	VT    int64  // virtual completion time
	Value uint64 // result checksum
}

// coreRT shortens distributed entry-point signatures in this package.
type coreRT = core.RT

// runMachine executes fn as the root program of a fresh simulated machine and
// panics unless it halts cleanly.
func runMachine(name string, cfg kernel.Config, shared uint64, fn func(rt *core.RT) uint64) Measurement {
	var value uint64
	res := core.Run(core.Options{Kernel: cfg, SharedSize: shared}, func(rt *core.RT) uint64 {
		value = fn(rt)
		return value
	})
	if res.Status != kernel.StatusHalted {
		panic(fmt.Sprintf("bench: %s stopped with %v: %v", name, res.Status, res.Err))
	}
	return Measurement{VT: res.VT, Value: value}
}

// runDet executes a Det entry point on a fresh simulated machine.
func runDet(spec workload.Spec, threads, cpus, nodes, size int, cost kernel.CostModel) Measurement {
	return runMachine(spec.Name, kernel.Config{Nodes: nodes, CPUsPerNode: cpus, Cost: cost},
		spec.SharedBytes(size), func(rt *core.RT) uint64 { return spec.Det(rt, threads, size) })
}

// runDetFn is runDet for ad-hoc entry points outside the Spec table.
func runDetFn(name string, fn func(rt *core.RT, threads, size int) uint64,
	threads, cpus, size int, shared uint64, cost kernel.CostModel) Measurement {
	return runMachine(name, kernel.Config{CPUsPerNode: cpus, Cost: cost}, shared,
		func(rt *core.RT) uint64 { return fn(rt, threads, size) })
}

// runDistDet executes a distributed Det entry point (signature
// rt × nodes × size) on an n-node machine with uniprocessor nodes.
func runDistDet(name string, fn func(rt *core.RT, nodes, size int) uint64,
	nodes, size int, shared uint64, cost kernel.CostModel) Measurement {
	return runMachine(name, kernel.Config{Nodes: nodes, CPUsPerNode: 1, Cost: cost}, shared,
		func(rt *core.RT) uint64 { return fn(rt, nodes, size) })
}

// idealBaselineVT models the nondeterministic baseline's completion time
// in the same virtual-time currency: pure compute spread over the CPUs,
// plus a nominal spawn/join cost per thread. This is deliberately
// generous to the baseline — it pays nothing for synchronization or
// memory isolation — so deterministic-to-baseline ratios are upper
// bounds on Determinator's overhead.
func idealBaselineVT(spec workload.Spec, size, threads, cpus int, cost kernel.CostModel) int64 {
	p := threads
	if cpus < p {
		p = cpus
	}
	if p < 1 {
		p = 1
	}
	work := spec.Work(size, threads)
	vt := work/int64(p) + int64(threads)*cost.Syscall
	if spec.Critical != nil {
		if c := spec.Critical(size, threads); c > vt {
			vt = c
		}
	}
	return vt
}
