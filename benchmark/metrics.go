package main

// The catalogue: every workload and metric the benchmark reports, by
// its permanent name. BENCHMARK.json at the repository root mirrors it
// (TestBenchmarkJSONMatchesCatalogue keeps the two in step), result
// files embed each metric's unit, direction and bound so -compare is
// self-contained, and README.md carries the same tables with the
// reasoning behind them.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"par_coarse", "md5, matmult, qsort, blackscholes vs goroutine twins: compute dominates, so vm/kernel/core changes must show no change here"},
	{"par_fine", "fft, lu_cont, lu_noncont vs goroutine twins: snapshot, merge, COW and fork/join dominate, so a merge or fork gain must show here"},
	{"serve_hot", "open/run/close over HTTP with every session resident: HTTP, queue and per-slice restore, capture and digest work; castore idle"},
	{"serve_evict", "same client against -resident 1: resting sessions are evicted to the DirStore and resumed, so castore writes and reads join in"},
	{"make_cold", "five DAG shapes built into a fresh store: every task executes in a hermetic space and every result is Put"},
	{"make_warm", "the same five builds over a pre-warmed store: 100% hits, so castore Get, index lookups and the image checksum do the work"},
}

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the old value by which an end-to-end metric
	// may get worse before -compare (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64
	// AbsSlack widens the bound to at least this much in the metric's
	// own unit (setup_s: 25% or 0.5 s, whichever is larger).
	AbsSlack float64
	// Exact marks a count that must repeat bit for bit between two runs
	// of one commit on one host: -compare checks it for equality.
	Exact bool
	// Moves says which end-to-end number the per-layer metric should
	// move, written down before measuring.
	Moves string
}

// endToEndDefs are the gated end-to-end metrics. Each is a ratio
// against the workload's reference — the same results computed the plain
// way in the same process, interleaved with the ops — because on the
// hosts this runs on the speed of memory- and disk-bound code drifts by
// tens of percent from minute to minute, and only an interleaved ratio
// cancels that (README.md has the measurements).
var endToEndDefs = []metricDef{
	{Name: "wall_ratio", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "cpu_per_ref", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, AbsSlack: 0.5},
}

// absoluteDefs are the same measurements, and the throughput, in
// absolute units. A full run
// reports them beside the ratios and a traced run as e2e.*, but nothing
// gates on them: between two runs of one commit they move with the host.
var absoluteDefs = []metricDef{
	{Name: "ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

// fullRunDefs is what a full run's result file and table carry per
// workload: the gated ratios, then the absolute numbers.
var fullRunDefs = append(append([]metricDef(nil), endToEndDefs...), absoluteDefs...)

const (
	movesParFine   = "par_fine.wall_ratio; not par_coarse"
	movesEvict     = "serve_evict.wall_ratio"
	movesHot       = "serve_hot.wall_ratio"
	movesServeBoth = "serve_hot and serve_evict"
	movesMake      = "make_cold and make_warm"
	movesContext   = "context for every number"
)

var perLayerDefs = []metricDef{
	// vm: Space.Snapshot / Write / Merge on a fixed 4096-page, 4-child shape.
	{Name: "vm.snapshot_ns_per_page", Unit: "ns", Better: "lower", Moves: movesParFine},
	{Name: "vm.cow_write_ns_per_page", Unit: "ns", Better: "lower", Moves: movesParFine},
	{Name: "vm.merge_adopt_ns_per_page", Unit: "ns", Better: "lower", Moves: movesParFine},
	{Name: "vm.merge_compare_gbps", Unit: "GB/s", Better: "higher", Moves: movesParFine},
	{Name: "vm.merge.pages_adopted", Unit: "count", Better: "lower", Exact: true, Moves: movesParFine},
	{Name: "vm.merge.pages_compared", Unit: "count", Better: "lower", Exact: true, Moves: movesParFine},
	{Name: "vm.merge.ptes_scanned", Unit: "count", Better: "lower", Exact: true, Moves: movesParFine},
	// vm image: the stripe resting image through the chunk layer.
	{Name: "vm.chunk_forest_ms_per_mb", Unit: "ms/MB", Better: "lower", Moves: movesEvict},
	{Name: "vm.unchunk_forest_ms_per_mb", Unit: "ms/MB", Better: "lower", Moves: movesEvict},
	{Name: "vm.decode_forest_ms_per_mb", Unit: "ms/MB", Better: "lower", Moves: movesHot},
	// kernel: a benchmark-owned root program.
	{Name: "kernel.put_get_us", Unit: "us", Better: "lower", Moves: movesParFine},
	{Name: "kernel.fork_merge_us", Unit: "us", Better: "lower", Moves: movesParFine},
	{Name: "kernel.checkpoint_ms", Unit: "ms", Better: "lower", Moves: movesHot},
	{Name: "kernel.restore_ms", Unit: "ms", Better: "lower", Moves: movesHot},
	{Name: "kernel.vt.par_coarse", Unit: "count", Better: "lower", Exact: true, Moves: "par_coarse (virtual time, not wall)"},
	{Name: "kernel.vt.par_fine", Unit: "count", Better: "lower", Exact: true, Moves: "par_fine (virtual time, not wall)"},
	{Name: "kernel.insns.par_coarse", Unit: "count", Better: "lower", Exact: true, Moves: "par_coarse (virtual time, not wall)"},
	{Name: "kernel.insns.par_fine", Unit: "count", Better: "lower", Exact: true, Moves: "par_fine (virtual time, not wall)"},
	// core
	{Name: "core.parallel_do_us_per_thread", Unit: "us", Better: "lower", Moves: "par_fine.wall_ratio"},
	{Name: "core.barrier_round_us", Unit: "us", Better: "lower", Moves: "par_fine.wall_ratio"},
	// dsched
	{Name: "dsched.round_us", Unit: "us", Better: "lower", Moves: "par_coarse (blackscholes is the dsched program)"},
	{Name: "dsched.rounds", Unit: "count", Better: "lower", Exact: true, Moves: "par_coarse (blackscholes is the dsched program)"},
	{Name: "dsched.tables_skipped", Unit: "count", Better: "higher", Exact: true, Moves: "par_coarse (blackscholes is the dsched program)"},
	// fs
	{Name: "fs.checksum_ms", Unit: "ms", Better: "lower", Moves: "make_warm.wall_ratio"},
	{Name: "fs.reconcile_ms", Unit: "ms", Better: "lower", Moves: "make_cold.wall_ratio"},
	{Name: "fs.write_read_file_us", Unit: "us", Better: "lower", Moves: movesMake},
	// castore: unit drives on a DirStore, then the traced decorator.
	{Name: "castore.put_us", Unit: "us", Better: "lower", Moves: "serve_evict, make_cold"},
	{Name: "castore.put_dup_us", Unit: "us", Better: "lower", Moves: "serve_evict, make_cold"},
	{Name: "castore.get_us", Unit: "us", Better: "lower", Moves: "serve_evict, make_warm"},
	{Name: "castore.put_calls_per_op", Unit: "count", Better: "lower", Moves: "serve_evict, make_cold; zero on serve_hot"},
	{Name: "castore.get_calls_per_op", Unit: "count", Better: "lower", Moves: "serve_evict, make_warm; zero on serve_hot"},
	{Name: "castore.put_dup_ratio", Unit: "ratio", Better: "higher", Moves: "serve_evict"},
	{Name: "castore.stored_bytes_per_op", Unit: "B", Better: "lower", Moves: "serve_evict, make_cold"},
	{Name: "castore.time_share", Unit: "ratio", Better: "lower", Moves: "bounds a codec gain on serve_evict, make_*"},
	// session (root package): one stripe session driven by hand.
	{Name: "session.bind_us", Unit: "us", Better: "lower", Moves: movesServeBoth},
	{Name: "session.step_ms", Unit: "ms", Better: "lower", Moves: movesHot},
	{Name: "session.step_resume_ms", Unit: "ms", Better: "lower", Moves: movesEvict},
	{Name: "session.suspend_ms", Unit: "ms", Better: "lower", Moves: movesEvict},
	{Name: "session.save_image_ms", Unit: "ms", Better: "lower", Moves: movesEvict},
	{Name: "session.load_image_ms", Unit: "ms", Better: "lower", Moves: movesEvict},
	{Name: "session.image_bytes_ms", Unit: "ms", Better: "lower", Moves: movesHot},
	{Name: "session.decode_image_ms", Unit: "ms", Better: "lower", Moves: movesHot},
	{Name: "session.program_share", Unit: "ratio", Better: "higher", Moves: movesServeBoth},
	// serve: the daemon's own counters, and the in-process replay.
	{Name: "serve.slices_per_op", Unit: "count", Better: "lower", Moves: movesServeBoth},
	{Name: "serve.evictions_per_slice", Unit: "ratio", Better: "lower", Moves: movesEvict},
	{Name: "serve.resumes_per_slice", Unit: "ratio", Better: "lower", Moves: movesEvict},
	{Name: "serve.slice_ms", Unit: "ms", Better: "lower", Moves: movesServeBoth},
	{Name: "serve.resume_slice_ms", Unit: "ms", Better: "lower", Moves: movesEvict},
	{Name: "serve.inproc_run_ms", Unit: "ms", Better: "lower", Moves: movesServeBoth},
	{Name: "serve.run_p99_ms", Unit: "ms", Better: "lower", Moves: "reported, not gated"},
	{Name: "serve.program_share", Unit: "ratio", Better: "higher", Moves: movesServeBoth},
	{Name: "serve.step_share", Unit: "ratio", Better: "lower", Moves: movesServeBoth},
	{Name: "serve.unattributed_share", Unit: "ratio", Better: "lower", Moves: movesServeBoth},
	// detserved: seen from outside the child process.
	{Name: "detserved.http_overhead_ms", Unit: "ms", Better: "lower", Moves: movesServeBoth},
	{Name: "detserved.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "how a time-for-memory trade shows"},
	{Name: "detserved.store_bytes_per_op", Unit: "B", Better: "lower", Moves: movesEvict},
	// detmake: per-shape builds, then the traced decorators' shares.
	{Name: "detmake.build_ms.wide.cold", Unit: "ms", Better: "lower", Moves: "make_cold"},
	{Name: "detmake.build_ms.wide.warm", Unit: "ms", Better: "lower", Moves: "make_warm"},
	{Name: "detmake.build_ms.chain.cold", Unit: "ms", Better: "lower", Moves: "make_cold"},
	{Name: "detmake.build_ms.chain.warm", Unit: "ms", Better: "lower", Moves: "make_warm"},
	{Name: "detmake.build_ms.diamond.cold", Unit: "ms", Better: "lower", Moves: "make_cold"},
	{Name: "detmake.build_ms.diamond.warm", Unit: "ms", Better: "lower", Moves: "make_warm"},
	{Name: "detmake.build_ms.dedup.cold", Unit: "ms", Better: "lower", Moves: "make_cold"},
	{Name: "detmake.build_ms.dedup.warm", Unit: "ms", Better: "lower", Moves: "make_warm"},
	{Name: "detmake.build_ms.ferret.cold", Unit: "ms", Better: "lower", Moves: "make_cold"},
	{Name: "detmake.build_ms.ferret.warm", Unit: "ms", Better: "lower", Moves: "make_warm"},
	{Name: "detmake.incr_build_ms", Unit: "ms", Better: "lower", Moves: movesMake},
	{Name: "detmake.share.store_put", Unit: "ratio", Better: "lower", Moves: "make_cold"},
	{Name: "detmake.share.store_get", Unit: "ratio", Better: "lower", Moves: "make_warm"},
	{Name: "detmake.share.index", Unit: "ratio", Better: "lower", Moves: movesMake},
	{Name: "detmake.share.actions", Unit: "ratio", Better: "higher", Moves: "make_cold"},
	{Name: "detmake.share.self", Unit: "ratio", Better: "lower", Moves: "detmake's unattributed share: spaces, fs images, reconcile, checksum"},
	{Name: "detmake.executed", Unit: "count", Better: "lower", Exact: true, Moves: "make_cold"},
	{Name: "detmake.cache_hits", Unit: "count", Better: "higher", Exact: true, Moves: "make_warm"},
	{Name: "detmake.stored_bytes", Unit: "B", Better: "lower", Exact: true, Moves: "make_cold"},
	{Name: "detmake.fetched_bytes", Unit: "B", Better: "lower", Exact: true, Moves: "make_warm"},
	{Name: "detmake.vt", Unit: "count", Better: "lower", Exact: true, Moves: "make_cold (virtual time, not wall)"},
	// the benchmark process and its host.
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Moves: movesContext},
	{Name: "proc.mallocs_per_op", Unit: "count", Better: "lower", Moves: movesContext},
	{Name: "proc.gc_cpu_share", Unit: "ratio", Better: "lower", Moves: movesContext},
	{Name: "host.nproc", Unit: "count", Better: "higher", Moves: movesContext},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher", Moves: movesContext},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower", Moves: movesContext},
	{Name: "host.perturbed_windows", Unit: "count", Better: "lower", Moves: movesContext},
	{Name: "e2e.ops_per_s", Unit: "op/s", Better: "higher", Moves: "closed-loop throughput in absolute units: moves with the host, reported not gated"},
	{Name: "e2e.op_p50_ms", Unit: "ms", Better: "lower", Moves: "wall_ratio in absolute units: moves with the host, reported not gated"},
	{Name: "e2e.cpu_ms_per_op", Unit: "ms", Better: "lower", Moves: "cpu_per_ref in absolute units: moves with the host, reported not gated"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "what the decorators cost: untraced / traced in-process ops_per_s"},
}
