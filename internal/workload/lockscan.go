package workload

import (
	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/vm"
)

// A synchronization-bound microworkload for the deterministic scheduler's
// round engine. Unlike the PARSEC-style kernels, it spends almost all of
// its time in the scheduler, which is exactly what the dsched experiment
// wants to measure: per-round overhead, not compute.

// scanTicksPerPage models the per-page digest cost of the holder's scan
// (hashing, parsing — work that is compute, not memory traffic).
const scanTicksPerPage = 500

// LockScan is the blocked-heavy, read-mostly shape: threads serialize on
// one mutex, and the holder scans a shared table of the given page count
// for many quanta — reading one word per page, charging a per-page
// digest cost, writing nothing — before recording one result and
// releasing. At any instant one thread is runnable and the rest sit
// blocked; every holder quantum after its first is resumed via epoch
// skip (nothing changed anywhere). The host cost of a quantum is a
// handful of accessor calls, so the measurement isolates the
// scheduler's per-round overhead — the round engine's target.
func LockScan(rt *core.RT, threads, pages int, cfg dsched.Config) (uint64, dsched.Stats) {
	table := rt.AllocPages(pages)
	results := rt.Alloc(uint64(8*threads), 8)
	env0 := rt.Env()
	for p := 0; p < pages; p++ {
		env0.WriteU64(table+vm.Addr(p)*vm.PageSize, uint64(p)*0x9E3779B97F4A7C15+1)
	}
	s, err := dsched.New(rt, cfg)
	if err != nil {
		panic(err)
	}
	mu := s.NewMutex()
	if err := s.Run(threads, func(th *dsched.Thread) {
		env := th.Env()
		th.Lock(mu)
		var sum uint64
		for p := 0; p < pages; p++ {
			sum += env.ReadU64(table + vm.Addr(p)*vm.PageSize)
			env.Tick(scanTicksPerPage)
		}
		env.WriteU64(results+vm.Addr(8*th.ID), sum*uint64(th.ID+1))
		th.Unlock(mu)
	}); err != nil {
		panic(err)
	}
	var sig uint64
	for i := 0; i < threads; i++ {
		sig = sig*1099511628211 + env0.ReadU64(results+vm.Addr(8*i))
	}
	return sig, s.Stats()
}
