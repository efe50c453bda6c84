package bench

import (
	"fmt"

	"repro"
	"repro/internal/vm"
)

// Ckpt sweeps the checkpoint subsystem: image size and chunked-store
// cost versus shared-region size and the fraction of the region a round
// of threads actually dirties (save and restore wall time are
// benchmark/'s kernel.checkpoint_ms and kernel.restore_ms, and
// BenchmarkCkptSave beside this file). Each row runs a phased fork/join
// program through the product path: a Session bound to it steps to a
// mid-run barrier and Suspends into a content-addressed chunk store, the
// image is read back with LoadImage, and a fresh Session admits the
// manifest with BindSuspended and Steps to the end, asserting the
// resumed result and virtual time are bit-identical to RunProgram's
// uninterrupted run — the sweep doubles as an end-to-end equivalence
// check of the save and resume a user pays.
//
// The flat image is delta-shaped by construction: every page is emitted
// once, however many spaces share it copy-on-write. The chunk columns
// measure the store layer on top of that: unique content-addressed
// bytes (chunk-kb, which include the session metadata and manifest
// chunks), how much the flat forest deduplicated into them (dedup), and
// what zero-elision plus flate left on disk (comp-kb).
//
// The Δ2 rows are the eviction path: suspend after a full first round,
// resume, run a round that dirties only 2% of the region, and suspend
// again, chained onto the first manifest. Their chunk columns count only
// the bytes the second save added to the store, and the run asserts
// those are under 10% of the first save's — the incremental-image
// contract.
func Ckpt(o Options) Table {
	regions := []uint64{16 << 20, 64 << 20}
	if o.Quick {
		regions = []uint64{8 << 20, 32 << 20}
	}
	fracs := []int{2, 25, 100}
	const threads = 4
	const phases = 3
	const stopAt = 2 // checkpoint at the barrier after phase 2

	t := Table{
		ID:    "ckpt",
		Title: "checkpoint image and chunk-store size vs region size and dirty fraction",
		Header: []string{"region", "dirty%", "img-kb", "kb/dirty-mb", "chunk-kb", "dedup",
			"comp-kb", "comp-kb/dmb", "resume"},
	}
	for _, region := range regions {
		for _, frac := range fracs {
			w := ckptWorkload{region: region, frac: frac, threads: threads, phases: phases}
			t.AddRow(w.row(iv(int64(frac)), stopAt)...)
		}
		const deltaFrac = 2
		w := ckptWorkload{region: region, frac: deltaFrac, threads: threads, phases: phases,
			phaseFracs: []int{100, deltaFrac, deltaFrac}}
		t.AddRow(w.row("Δ2", 1, 2)...)
	}
	t.Note("img-kb is the serialized machine image (all replicas and snapshots, unique pages once);")
	t.Note("kb/dirty-mb normalizes by the bytes a round actually dirties. chunk-kb is the unique")
	t.Note("content-addressed bytes after dedup (dedup = img-bytes/chunk-bytes), comp-kb what")
	t.Note("zero-elision+flate stored. Δ2 rows suspend after a full round, resume, dirty 2%% and suspend")
	t.Note("again; their chunk columns count only the new bytes (asserted <10%% of the first save's).")
	t.Note("Every row resumes from the chunk store bit-identically to an uninterrupted run.")
	return t
}

// row saves the workload at each of the given barriers (ascending) — a
// Suspend at each, every one after the first resuming from the one
// before — reads the last image back, resumes it in a fresh session and
// returns the table row. The chunk columns count what the last Suspend
// added to the store.
func (w ckptWorkload) row(label string, barriers ...int) []string {
	want, err := w.session().RunProgram(w.program())
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt workload: %v", err))
	}

	store := repro.NewMemStore()
	s := w.session()
	if err := s.Bind(w.program()); err != nil {
		panic(fmt.Sprintf("bench: ckpt bind: %v", err))
	}
	var m *repro.Manifest
	var first, before, after repro.StoreStats
	pos := 0
	for i, b := range barriers {
		if _, err := s.Step(b - pos); err != nil {
			panic(fmt.Sprintf("bench: ckpt step: %v", err))
		}
		pos = b
		if m, err = s.Suspend(store); err != nil {
			panic(fmt.Sprintf("bench: ckpt save: %v", err))
		}
		before = after
		if after, err = store.Stats(); err != nil {
			panic(fmt.Sprintf("bench: ckpt store stats: %v", err))
		}
		if i == 0 {
			first = after
		}
	}
	s.Close()
	logical := after.LogicalSize - before.LogicalSize
	stored := after.StoredSize - before.StoredSize
	if len(barriers) > 1 && logical*10 >= first.LogicalSize {
		panic(fmt.Sprintf("bench: ckpt delta stored %d of %d chunk bytes (>= 10%%): not incremental",
			logical, first.LogicalSize))
	}

	img, err := repro.LoadImage(store, m)
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt load: %v", err))
	}
	r := w.session()
	if err := r.BindSuspended(w.program(), store, m); err != nil {
		panic(fmt.Sprintf("bench: ckpt admit: %v", err))
	}
	got, err := r.Step(w.phases)
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt resume: %v", err))
	}
	r.Close()
	if got.Result.Ret != want.Ret || got.Result.VT != want.VT {
		panic(fmt.Sprintf("bench: ckpt resume diverged: got ret=%d vt=%d, want ret=%d vt=%d",
			got.Result.Ret, got.Result.VT, want.Ret, want.VT))
	}

	n := len(img.Kernel)
	dirtyMB := float64(w.region) * float64(w.frac) / 100 / (1 << 20)
	return []string{fmt.Sprintf("%dM", w.region>>20), label,
		iv(int64(n >> 10)),
		f2(float64(n>>10) / dirtyMB),
		iv(logical >> 10),
		f2(float64(n) / float64(logical)),
		iv(stored >> 10),
		f2(float64(stored) / 1024 / dirtyMB),
		"bit-eq"}
}

// ckptWorkload is the phased fork/join program the sweep runs: each
// phase stripes writes over the first frac% of the region's pages and
// folds per-thread sums into an accumulator. phaseFracs, when set,
// overrides the dirty fraction per phase (the incremental rows use a
// full first round and small later rounds).
type ckptWorkload struct {
	region     uint64
	frac       int
	threads    int
	phases     int
	phaseFracs []int
}

// session returns a fresh Session on the workload's machine: one node
// with a CPU per thread, the region as its shared region.
func (w ckptWorkload) session() *repro.Session {
	s, err := repro.NewSession(repro.WithMachine(repro.MachineConfig{CPUsPerNode: w.threads}),
		repro.WithSharedSize(w.region))
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt session: %v", err))
	}
	return s
}

// fracOf is the dirty fraction phase p uses.
func (w ckptWorkload) fracOf(p int) int {
	if w.phaseFracs != nil {
		return w.phaseFracs[p]
	}
	return w.frac
}

// maxFrac sizes the data region: the largest fraction any phase touches.
func (w ckptWorkload) maxFrac() int {
	max := w.frac
	for _, f := range w.phaseFracs {
		if f > max {
			max = f
		}
	}
	return max
}

// touchedPages is how many pages a round at the given fraction dirties:
// frac% of the region, capped one page short so the accumulator always
// fits.
func (w ckptWorkload) touchedPages(frac int) int {
	pages := int(w.region >> vm.PageShift)
	return (pages - 1) * frac / 100
}

// program is the workload as a phased Program. Layout re-derives the
// accumulator and the data pages (deterministic bump allocation, the
// same on a fresh start and a resume), Init seeds the accumulator, each
// Phase is one fork/join round and Result reads the accumulator.
func (w ckptWorkload) program() repro.Program {
	var data, acc repro.Addr
	return repro.Program{
		Phases: w.phases,
		Layout: func(rt *repro.RT) {
			acc = rt.Alloc(8, 8)
			data = rt.Alloc(uint64(w.touchedPages(w.maxFrac()))<<vm.PageShift, vm.PageSize)
		},
		Init: func(rt *repro.RT) { rt.Env().WriteU64(acc, 1) },
		Phase: func(rt *repro.RT, p int) error {
			touched := w.touchedPages(w.fracOf(p))
			rets, err := rt.ParallelDo(w.threads, func(t *repro.Thread) uint64 {
				lo := t.ID * touched / w.threads
				hi := (t.ID + 1) * touched / w.threads
				var sum uint64
				for i := lo; i < hi; i++ {
					a := data + repro.Addr(i)<<vm.PageShift
					// The per-page term keeps page contents distinct, so the
					// chunk columns measure the store, not accidental dedup
					// of a degenerate all-pages-identical workload.
					v := t.Env().ReadU64(a)*6364136223846793005 + uint64(i)*2654435761 + uint64(p*31+t.ID+1)
					t.Env().WriteU64(a, v)
					sum += v
				}
				return sum
			})
			if err != nil {
				return err
			}
			h := rt.Env().ReadU64(acc)
			for _, r := range rets {
				h = h*31 + r
			}
			rt.Env().WriteU64(acc, h)
			return nil
		},
		Result: func(rt *repro.RT) uint64 { return rt.Env().ReadU64(acc) },
	}
}
