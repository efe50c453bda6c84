package workload

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// ClusterStencil is the cluster-scale barrier workload behind the
// `detbench -run cluster` sweep: a phase-stepped stencil over the
// logically shared region, with threads placed in contiguous blocks
// across the nodes. Every phase each thread folds the previous phase's
// combined boundary words (cross-thread — and cross-node — dataflow
// through the barrier merges) into its own page stripe and publishes a
// new boundary word. The stripe writes make per-thread deltas that are
// page-contiguous per node, the layout batched transfers and the
// per-node delegate collectors are built for.
type ClusterConfig struct {
	Nodes          int
	Threads        int
	PagesPerThread int
	Phases         int
}

// ClusterStencil runs the workload on rt's machine and returns the
// deterministic result checksum plus the root collector's cross-node
// traffic. The checksum depends only on Threads, PagesPerThread and
// Phases — never on Nodes — which is what the bench harness asserts.
func ClusterStencil(rt *core.RT, cfg ClusterConfig) (uint64, kernel.NetStats) {
	threads, pages := cfg.Threads, cfg.PagesPerThread
	stripes := rt.AllocPages(threads * pages)
	words := rt.Alloc(uint64(8*threads), 8)
	place := func(i int) int { return i * cfg.Nodes / threads } // blocked
	if err := rt.RunPhasesOn(threads, cfg.Phases, place, func(th *core.Thread, phase int) {
		env := th.Env()
		var carry uint64
		if phase > 0 {
			for i := 0; i < threads; i++ {
				carry += env.ReadU64(words + vm.Addr(8*i))
			}
		}
		base := stripes + vm.Addr(th.ID*pages)*vm.PageSize
		for off := 0; off < pages*int(vm.PageSize); off += 8 {
			env.WriteU64(base+vm.Addr(off), carry+uint64(th.ID)*1_000_003+uint64(phase)*257+uint64(off))
		}
		env.WriteU64(words+vm.Addr(8*th.ID), carry*31+uint64(th.ID+1)*uint64(phase+1))
	}); err != nil {
		panic(err)
	}
	env := rt.Env()
	var sig uint64
	for i := 0; i < threads; i++ {
		base := stripes + vm.Addr(i*pages)*vm.PageSize
		for off := 0; off < pages*int(vm.PageSize); off += 64 {
			sig = sig*1099511628211 + env.ReadU64(base+vm.Addr(off))
		}
		sig = sig*31 + env.ReadU64(words+vm.Addr(8*i))
	}
	return sig, env.NetStats()
}

// ClusterSharedBytes sizes the shared region for a configuration.
func ClusterSharedBytes(cfg ClusterConfig) uint64 {
	return uint64(cfg.Threads*cfg.PagesPerThread)*vm.PageSize + (1 << 20)
}
