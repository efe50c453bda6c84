package dsched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// The adaptive-quantum policy (telemetry-driven, replacing the fixed
// one-runnable boost): for race-free programs the policy may move the
// schedule — round counts, quanta, virtual times — but never the result
// bits; and whatever schedule it picks must be exactly repeatable.

// adaptiveWorkload is a race-free composite: a mutex-protected counter
// and slot log, a read-mostly scan phase, and a barrier — phases that
// exercise all three policy branches (single-runnable, contended
// read-mostly, commit-heavy).
func runAdaptiveWorkload(t *testing.T, adaptive bool) (uint64, Stats, int64, []RoundStats) {
	t.Helper()
	const n, iters = 4, 5
	var stats Stats
	var perRound []RoundStats
	res := core.Run(core.Options{
		Kernel: kernel.Config{CPUsPerNode: n},
	}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{
			Quantum:         700,
			AdaptiveQuantum: adaptive,
			OnRound:         func(rs RoundStats) { perRound = append(perRound, rs) },
		})
		mu := s.NewMutex()
		counter := rt.Alloc(8, 8)
		seq := rt.Alloc(8, 8)
		slots := rt.AllocPages(1)
		b := s.NewBarrier(n)
		if err := s.Run(n, func(th *Thread) {
			env := th.Env()
			for i := 0; i < iters; i++ {
				th.Lock(mu)
				v := env.ReadU64(counter)
				env.Tick(1500) // critical section spans quanta: single-runnable rounds
				env.WriteU64(counter, v+1)
				pos := env.ReadU64(seq)
				env.WriteU64(seq, pos+1)
				if pos < 512 {
					env.WriteU64(slots+vm.Addr(8*pos), uint64(th.ID+1)*1000+uint64(i))
				}
				th.Unlock(mu)
			}
			th.BarrierWait(b)
			// Read-mostly contended phase: everyone scans, nobody writes.
			var sum uint64
			for rep := 0; rep < 6; rep++ {
				for j := 0; j < 512; j++ {
					sum += env.ReadU64(slots + vm.Addr(8*j))
				}
				env.Tick(400)
			}
			th.Lock(mu)
			env.WriteU64(counter, env.ReadU64(counter)+sum%89)
			th.Unlock(mu)
		}); err != nil {
			panic(err)
		}
		stats = s.Stats()
		env := rt.Env()
		sig := env.ReadU64(counter)
		for j := 0; j < 512; j++ {
			sig = sig*1099511628211 + env.ReadU64(slots+vm.Addr(8*j))
		}
		return sig
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("adaptive=%v: %v %v", adaptive, res.Status, res.Err)
	}
	return res.Ret, stats, res.VT, perRound
}

func TestAdaptivePolicyPreservesResultBits(t *testing.T) {
	fixedSig, fixedStats, fixedVT, _ := runAdaptiveWorkload(t, false)
	adaptSig, adaptStats, adaptVT, adaptRounds := runAdaptiveWorkload(t, true)

	if adaptSig != fixedSig {
		t.Errorf("adaptive policy changed result bits: %#x vs %#x", adaptSig, fixedSig)
	}
	if adaptStats.Rounds >= fixedStats.Rounds {
		t.Errorf("adaptive policy did not reduce rounds: %d vs %d",
			adaptStats.Rounds, fixedStats.Rounds)
	}
	// The policy must actually vary the quantum with telemetry, not just
	// apply a constant boost: both boosted and baseline quanta appear.
	seen := map[int64]bool{}
	for _, rs := range adaptRounds {
		seen[rs.Quantum] = true
	}
	if len(seen) < 2 {
		t.Errorf("adaptive schedule used a single quantum %v: policy never adapted", seen)
	}
	if !seen[700] {
		t.Errorf("adaptive schedule never returned to the base quantum: %v", seen)
	}

	// Repeatability: the adaptive schedule is a deterministic function
	// of the program, bit for bit — VT and per-round telemetry included.
	sig2, stats2, vt2, rounds2 := runAdaptiveWorkload(t, true)
	if sig2 != adaptSig || stats2 != adaptStats || vt2 != adaptVT {
		t.Fatalf("adaptive schedule not repeatable: (%#x,%+v,%d) vs (%#x,%+v,%d)",
			sig2, stats2, vt2, adaptSig, adaptStats, adaptVT)
	}
	if len(rounds2) != len(adaptRounds) {
		t.Fatalf("round counts differ across reruns: %d vs %d", len(rounds2), len(adaptRounds))
	}
	for i := range rounds2 {
		if rounds2[i] != adaptRounds[i] {
			t.Fatalf("round %d telemetry differs across reruns: %+v vs %+v",
				i+1, rounds2[i], adaptRounds[i])
		}
	}
	_ = fixedVT
}
