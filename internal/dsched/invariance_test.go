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
// invariant across host parallelism (GOMAXPROCS).
type engineResult struct {
	checksum uint64
	vt       int64
	rounds   int64
	quanta   int64
	merge    vm.MergeStats
	resynced int64 // Stats.TablesResynced
	skipped  int64 // Stats.TablesSkipped
	tables   int   // shared-region tables
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
// handshake and a barrier — and returns the invariants. The per-round
// statistics arrive through the onRound seam.
func runEngineWorkload(t *testing.T) engineResult {
	t.Helper()
	const n, iters = 4, 6
	var out engineResult
	res := core.Run(core.Options{
		Kernel: kernel.Config{CPUsPerNode: n},
	}, func(rt *core.RT) uint64 {
		s := mustNew(rt, Config{Quantum: 900})
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
		_, size := rt.SharedRange()
		out.tables = int(size / vm.TableSpan)
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
// paths those knobs selected are gone, the epoch tracking too; this pins
// that what remains still computes what all of them did. Three counts
// were re-pinned since: PtesScanned counts the slots a merge walks, which
// are now those either side backs in each table the child no longer
// shares; resynced and skipped count the region tables each start's copy
// found replaced and still shared, not what an epoch proof concluded.
var engineGolden = engineResult{
	checksum: 0xe933f93af32a0f26,
	vt:       152551,
	rounds:   13,
	quanta:   31,
	merge:    vm.MergeStats{TablesAdopted: 10, PagesAdopted: 16, PtesScanned: 20},
	resynced: 78,
	skipped:  418,
	tables:   16,
}

func TestRoundEngineGolden(t *testing.T) {
	got := runEngineWorkload(t)
	got.perRound = nil
	if !reflect.DeepEqual(got, engineGolden) {
		t.Errorf("engine workload moved:\n got  %+v\n want %+v", got, engineGolden)
	}
}

// TestRoundEngineInvariance: checksums, conflict behavior (the LWW merges
// must never raise one), round counts, merge statistics, resync counts
// and virtual times are identical, round for round, with the threads'
// goroutines on one OS thread and on the default GOMAXPROCS; and every
// start counts each shared-region table once, as stale or as current.
func TestRoundEngineInvariance(t *testing.T) {
	def := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	base := runEngineWorkload(t)
	if base.rounds < 8 {
		t.Fatalf("workload too small to exercise the engine: %d rounds", base.rounds)
	}
	for i, rs := range base.perRound {
		if rs.TablesResynced+rs.TablesSkipped != rs.Ran*base.tables {
			t.Errorf("round %d: %d stale + %d current tables over %d starts of %d tables",
				i+1, rs.TablesResynced, rs.TablesSkipped, rs.Ran, base.tables)
		}
	}
	runtime.GOMAXPROCS(def)
	got := runEngineWorkload(t)
	if !reflect.DeepEqual(got, base) {
		t.Errorf("GOMAXPROCS %d moved the engine:\n got  %+v\n base %+v", def, got, base)
	}
}

// TestReadMostlyQuantaResyncNothing proves the identity check is real:
// the workload's post-barrier scan phase runs quanta that write nothing,
// and those threads must resume with every region table still shared —
// while the quanta that do write find their tables stale.
func TestReadMostlyQuantaResyncNothing(t *testing.T) {
	got := runEngineWorkload(t)
	if got.perRound[len(got.perRound)-1].VT == 0 {
		t.Fatal("round telemetry missing VT")
	}
	var skipped, resynced int64
	for _, rs := range got.perRound[1:] {
		skipped += int64(rs.SyncSkipped)
		resynced += int64(rs.TablesResynced)
	}
	if skipped == 0 {
		t.Fatal("no quantum resumed with nothing stale on a read-mostly workload")
	}
	if resynced == 0 {
		t.Fatal("no resumed quantum found a table its writes or a commit replaced")
	}
}
