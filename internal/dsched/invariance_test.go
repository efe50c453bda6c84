package dsched

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// engineResult captures everything the round engine promises to keep
// invariant across host parallelism (GOMAXPROCS) and the skip seam.
type engineResult struct {
	checksum uint64
	vt       int64
	rounds   int64
	quanta   int64
	merge    vm.MergeStats
	resynced int64 // Stats.TablesResynced
	skipped  int64 // Stats.TablesSkipped
	perRound []RoundStats
}

// mustNew is New for test bodies running inside core.Run, where a panic
// is how a thread function reports failure.
func mustNew(rt *core.RT, cfg Config) *Sched {
	s, err := New(rt, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// runEngineWorkload executes a composite synchronization workload — a
// mutex-protected counter, deliberately racy (LWW) writes, a condvar
// handshake and a barrier — and returns the invariants. noSkip sets the
// Sched's test seam: every resync is the full one, never skipped or
// partial. The per-round statistics arrive through the onRound seam.
func runEngineWorkload(t *testing.T, noSkip bool) engineResult {
	t.Helper()
	const n, iters = 4, 6
	var out engineResult
	res := core.Run(core.Options{
		Kernel: kernel.Config{CPUsPerNode: n},
	}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 900})
		s.noSkip = noSkip
		s.onRound = func(rs RoundStats) { out.perRound = append(out.perRound, rs) }
		mu := s.NewMutex()
		counter := rt.Alloc(8, 8)
		racy := rt.Alloc(8, 8)
		seq := rt.Alloc(8, 8)
		slots := rt.AllocPages(1)
		b := s.NewBarrier(n)
		if err := s.Run(n, func(th *Thread) {
			env := th.Env()
			for i := 0; i < iters; i++ {
				th.Lock(mu)
				v := env.ReadU64(counter)
				env.Tick(25)
				env.WriteU64(counter, v+1)
				pos := env.ReadU64(seq)
				env.WriteU64(seq, pos+1)
				if pos < 512 {
					env.WriteU64(slots+vm.Addr(8*pos), uint64(th.ID+1))
				}
				th.Unlock(mu)
				env.WriteU64(racy, uint64(th.ID)*1_000_003+uint64(i)) // racy on purpose
				env.Tick(int64(60 * (th.ID + 1)))
			}
			th.BarrierWait(b)
			// Post-barrier read-mostly phase: scan the slot table for
			// several quanta without writing, then record one result.
			var sum uint64
			for rep := 0; rep < 4; rep++ {
				for j := 0; j < 512; j++ {
					sum += env.ReadU64(slots + vm.Addr(8*j))
				}
				env.Tick(300)
			}
			th.Lock(mu)
			env.WriteU64(counter, env.ReadU64(counter)+sum%97)
			th.Unlock(mu)
		}); err != nil {
			panic(err)
		}
		env := rt.Env()
		sig := env.ReadU64(counter)*31 + env.ReadU64(racy)
		for j := 0; j < 512; j++ {
			sig = sig*1099511628211 + env.ReadU64(slots+vm.Addr(8*j))
		}
		out.rounds = s.Stats().Rounds
		st := s.Stats()
		out.quanta = st.ThreadQuanta
		out.merge = st.Merge
		out.resynced = st.TablesResynced
		out.skipped = st.TablesSkipped
		return sig
	})
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	out.checksum = res.Ret
	out.vt = res.VT
	return out
}

// engineGolden is runEngineWorkload's outcome as captured at the commit
// before the ablation knobs were deleted (fff16d7), where it was asserted
// identical with epoch skipping on and off, at per-table and whole-region
// epoch granularity, and under the word and per-byte merge kernels. The
// paths those knobs selected are gone; this pins that what remains still
// computes what all of them did. PtesScanned alone was re-pinned since:
// it counts the slots a merge walks, which are now those either side
// backs in each table the child no longer shares.
var engineGolden = engineResult{
	checksum: 0xe933f93af32a0f26,
	vt:       152551,
	rounds:   13,
	quanta:   31,
	merge:    vm.MergeStats{TablesAdopted: 10, PagesAdopted: 16, PtesScanned: 20},
	resynced: 169,
	skipped:  327,
}

func TestRoundEngineGolden(t *testing.T) {
	got := runEngineWorkload(t, false)
	got.perRound = nil
	if !reflect.DeepEqual(got, engineGolden) {
		t.Errorf("engine workload moved:\n got  %+v\n want %+v", got, engineGolden)
	}
	// With the seam forcing every resync full, the parent commit counted
	// all 496 thread-round tables as resynced at the same checksum and VT.
	full := runEngineWorkload(t, true)
	if full.checksum != engineGolden.checksum || full.vt != engineGolden.vt ||
		full.resynced != 496 || full.skipped != 0 {
		t.Errorf("no-skip run moved: checksum %#x vt %d resynced %d skipped %d",
			full.checksum, full.vt, full.resynced, full.skipped)
	}
}

// TestRoundEngineInvariance: checksums, conflict behavior (the LWW merges
// must never raise one), round counts, merge statistics and virtual times
// are identical with the threads' goroutines on one OS thread and on the
// default GOMAXPROCS, and with epoch-skipped resynchronization on and off.
func TestRoundEngineInvariance(t *testing.T) {
	def := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	base := runEngineWorkload(t, false)
	if base.rounds < 8 {
		t.Fatalf("workload too small to exercise the engine: %d rounds", base.rounds)
	}
	variants := []struct {
		name   string
		procs  int
		noSkip bool
	}{
		{"procsDefault", def, false},
		{"noSkip", 1, true},
		{"noSkipProcsDefault", def, true},
	}
	for _, v := range variants {
		runtime.GOMAXPROCS(v.procs)
		got := runEngineWorkload(t, v.noSkip)
		if got.checksum != base.checksum {
			t.Errorf("%s: checksum %#x != base %#x", v.name, got.checksum, base.checksum)
		}
		if got.vt != base.vt {
			t.Errorf("%s: virtual time %d != base %d", v.name, got.vt, base.vt)
		}
		if got.rounds != base.rounds || got.quanta != base.quanta {
			t.Errorf("%s: rounds/quanta %d/%d != base %d/%d",
				v.name, got.rounds, got.quanta, base.rounds, base.quanta)
		}
		if got.merge != base.merge {
			t.Errorf("%s: merge stats %+v != base %+v", v.name, got.merge, base.merge)
		}
		if len(got.perRound) != len(base.perRound) {
			t.Errorf("%s: %d per-round records != base %d",
				v.name, len(got.perRound), len(base.perRound))
			continue
		}
		for i := range got.perRound {
			g, b := got.perRound[i], base.perRound[i]
			// SyncSkipped and the resync-table counts legitimately differ
			// with the skip seam (that telemetry measures exactly what it
			// changes); everything else must match round for round.
			g.SyncSkipped, b.SyncSkipped = 0, 0
			g.TablesResynced, b.TablesResynced = 0, 0
			g.TablesSkipped, b.TablesSkipped = 0, 0
			if g != b {
				t.Errorf("%s: round %d stats %+v != base %+v", v.name, i+1,
					got.perRound[i], base.perRound[i])
				break
			}
		}
	}
}

// TestEpochSkipFiresOnReadMostlyPhases proves the skip is real: the
// workload's post-barrier scan phase runs quanta that write nothing, and
// the engine must resume those threads without resynchronization.
func TestEpochSkipFiresOnReadMostlyPhases(t *testing.T) {
	got := runEngineWorkload(t, false)
	if got.perRound[len(got.perRound)-1].VT == 0 {
		t.Fatal("round telemetry missing VT")
	}
	var skipped int64
	for _, rs := range got.perRound {
		skipped += int64(rs.SyncSkipped)
	}
	if skipped == 0 {
		t.Fatal("no quantum was resumed via epoch skip on a read-mostly workload")
	}
	off := runEngineWorkload(t, true)
	var offSkipped int64
	for _, rs := range off.perRound {
		offSkipped += int64(rs.SyncSkipped)
	}
	if offSkipped != 0 {
		t.Fatalf("noSkip still skipped %d resyncs", offSkipped)
	}
}
