package dsched_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/kernel"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Two rows of detbench's quick dsched table, with every deterministic
// number captured at the commit before the ablation knobs were deleted
// (fff16d7). There the harness re-ran each row at whole-region epoch
// granularity and under the per-byte merge kernel and asserted checksum,
// virtual time, schedule and merge statistics identical to these; the
// no-skip variant was checked the same way when the values were taken.
// Those paths no longer exist, so the equivalence is pinned as constants.
// Two kinds of count were re-pinned since: PtesScanned counts the slots a
// merge walks, which are now those either side backs in each table the
// child no longer shares; SyncSkipped and the table counts come from what
// each start's region copy found, stale or still shared, not from an
// epoch proof (blackscholes reads the same either way, lockscan does not).
func TestSchedRowsGolden(t *testing.T) {
	const threads = 4
	bs, _ := workload.Lookup("blackscholes")
	rows := []struct {
		name     string
		shared   uint64
		run      func(rt *core.RT, cfg dsched.Config) (uint64, dsched.Stats)
		quantum  int64
		checksum uint64
		vt       int64
		stats    dsched.Stats
	}{
		{
			name:   "blackscholes",
			shared: bs.SharedBytes(1 << 10),
			run: func(rt *core.RT, cfg dsched.Config) (uint64, dsched.Stats) {
				return workload.BlackscholesSched(rt, threads, 1<<10, cfg)
			},
			quantum:  5_000,
			checksum: 0x356015309bdb0417,
			vt:       203510,
			stats: dsched.Stats{Rounds: 11, ThreadQuanta: 44, SyncSkipped: 40,
				TablesResynced: 12, TablesSkipped: 120,
				Merge: vm.MergeStats{TablesAdopted: 1, PagesAdopted: 2, PagesCompared: 2,
					BytesMerged: 4050, PtesScanned: 52}},
		},
		{
			name:   "lockscan",
			shared: 16 << 20,
			run: func(rt *core.RT, cfg dsched.Config) (uint64, dsched.Stats) {
				return workload.LockScan(rt, threads, 24, cfg)
			},
			quantum:  2_000,
			checksum: 0x3764c696ac28718,
			vt:       131521,
			stats: dsched.Stats{Rounds: 28, ThreadQuanta: 31, SyncSkipped: 24,
				TablesResynced: 19, TablesSkipped: 105,
				Merge: vm.MergeStats{TablesAdopted: 5, PagesAdopted: 5, PtesScanned: 125}},
		},
	}
	def := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	for _, r := range rows {
		for _, procs := range []int{1, def} {
			runtime.GOMAXPROCS(procs)
			var st dsched.Stats
			res := core.Run(core.Options{
				Kernel:     kernel.Config{CPUsPerNode: threads},
				SharedSize: r.shared,
			}, func(rt *core.RT) uint64 {
				var v uint64
				v, st = r.run(rt, dsched.Config{Quantum: r.quantum})
				return v
			})
			if res.Status != kernel.StatusHalted {
				t.Fatalf("%s: %v: %v", r.name, res.Status, res.Err)
			}
			if res.Ret != r.checksum || res.VT != r.vt || st != r.stats {
				t.Errorf("%s GOMAXPROCS=%d moved:\n got  %#x vt %d %+v\n want %#x vt %d %+v",
					r.name, procs, res.Ret, res.VT, st, r.checksum, r.vt, r.stats)
			}
		}
	}
}
