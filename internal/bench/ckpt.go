package bench

import (
	"bytes"
	"fmt"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Ckpt sweeps the checkpoint subsystem: image size and chunked-store
// cost versus shared-region size and the fraction of the region a round
// of threads actually dirties (save and restore wall time are
// benchmark/'s kernel.checkpoint_ms and kernel.restore_ms, and
// BenchmarkCkptSave beside this file). Each row runs a
// phased fork/join workload, checkpoints at a mid-run barrier, ships the
// image through the content-addressed chunk store (split, chunk,
// unchunk, join — asserted byte-identical), restores the rebuilt image
// into a fresh machine, resumes, and asserts the resumed result and
// virtual time are bit-identical to the uninterrupted run — the sweep
// doubles as an end-to-end equivalence check of the chunked path.
//
// The flat image is delta-shaped by construction: every page is emitted
// once, however many spaces share it copy-on-write. The chunk columns
// measure the store layer on top of that: unique content-addressed
// bytes (chunk-kb), how much the flat forest deduplicated into them
// (dedup), and what zero-elision plus flate left on disk (comp-kb).
//
// The Δ2 rows chain a second checkpoint after a round that dirties only
// 2% of the region: their chunk columns count only the bytes the second
// checkpoint added to the store, and the run asserts those are under
// 10% of the first checkpoint's — the incremental-image contract.
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
			cfg := kernel.Config{CPUsPerNode: threads}

			want := w.run(cfg, 0, nil, nil)
			if want.Err != nil {
				panic(fmt.Sprintf("bench: ckpt workload: %v", want.Err))
			}

			img := w.imagesAt(cfg, stopAt)[0]

			// Ship the image through the chunk store and rebuild it.
			store := castore.NewMemStore()
			joined, st := chunkRoundTrip(store, img, castore.Key{})

			m := kernel.New(cfg)
			if err := m.Restore(joined); err != nil {
				panic(fmt.Sprintf("bench: ckpt restore: %v", err))
			}
			assertBitEq(w.resume(m, stopAt), want)

			dirtyMB := float64(region) * float64(frac) / 100 / (1 << 20)
			t.AddRow(fmt.Sprintf("%dM", region>>20), iv(int64(frac)),
				iv(int64(len(img)>>10)),
				f2(float64(len(img)>>10)/dirtyMB),
				iv(int64(st.LogicalSize>>10)),
				f2(float64(len(img))/float64(st.LogicalSize)),
				iv(int64(st.StoredSize>>10)),
				f2(float64(st.StoredSize)/1024/dirtyMB),
				"bit-eq")
		}

		// Incremental row: checkpoint after a 100%-dirty init, then again
		// after a 2%-dirty round, chaining the second forest onto the
		// first. The chunk columns report only what the delta added.
		t.AddRow(ckptDeltaRow(region, threads)...)
	}
	t.Note("img-kb is the serialized machine image (all replicas and snapshots, unique pages once);")
	t.Note("kb/dirty-mb normalizes by the bytes a round actually dirties. chunk-kb is the unique")
	t.Note("content-addressed bytes after dedup (dedup = img-bytes/chunk-bytes), comp-kb what")
	t.Note("zero-elision+flate stored. Δ2 rows chain a 2%%-dirty second checkpoint onto a full one;")
	t.Note("their chunk columns count only the new bytes (asserted <10%% of the first checkpoint's).")
	t.Note("Every row restores from the chunk store and resumes bit-identically to an uninterrupted run.")
	return t
}

// chunkRoundTrip splits img, chunks the forest into store (chained onto
// parent when non-zero), asserts the unchunked forest rejoins to the
// exact original image, and returns the rebuilt image, the store stats
// after the chunking, and the forest root.
func chunkRoundTrip(store *castore.MemStore, img []byte, parent castore.Key) ([]byte, castore.StoreStats) {
	joined, _, st := chunkRoundTripRoot(store, img, parent)
	return joined, st
}

func chunkRoundTripRoot(store *castore.MemStore, img []byte, parent castore.Key) ([]byte, castore.Key, castore.StoreStats) {
	meta, forest, err := kernel.SplitImage(img)
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt split: %v", err))
	}
	root, err := vm.ChunkForest(store, forest, parent)
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt chunk: %v", err))
	}
	rebuilt, err := vm.UnchunkForest(store, root)
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt unchunk: %v", err))
	}
	if !bytes.Equal(rebuilt, forest) {
		panic("bench: ckpt unchunked forest differs from the original")
	}
	joined, err := kernel.JoinImage(meta, rebuilt)
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt join: %v", err))
	}
	if !bytes.Equal(joined, img) {
		panic("bench: ckpt chunk round trip differs from the original image")
	}
	st, err := store.Stats()
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt store stats: %v", err))
	}
	return joined, root, st
}

// ckptDeltaRow measures the incremental checkpoint: a full-region init
// checkpoint, then a chained one after a 2%-dirty round.
func ckptDeltaRow(region uint64, threads int) []string {
	const deltaFrac = 2
	w := ckptWorkload{region: region, frac: deltaFrac, threads: threads, phases: 3,
		phaseFracs: []int{100, deltaFrac, deltaFrac}}
	cfg := kernel.Config{CPUsPerNode: threads}

	want := w.run(cfg, 0, nil, nil)
	if want.Err != nil {
		panic(fmt.Sprintf("bench: ckpt delta workload: %v", want.Err))
	}

	imgs := w.imagesAt(cfg, 1, 2)
	img1, img2 := imgs[0], imgs[1]

	store := castore.NewMemStore()
	_, root1, s1 := chunkRoundTripRoot(store, img1, castore.Key{})
	joined2, _, s2 := chunkRoundTripRoot(store, img2, root1)

	deltaLogical := s2.LogicalSize - s1.LogicalSize
	deltaStored := s2.StoredSize - s1.StoredSize
	if deltaLogical*10 >= s1.LogicalSize {
		panic(fmt.Sprintf("bench: ckpt delta stored %d of %d chunk bytes (>= 10%%): not incremental",
			deltaLogical, s1.LogicalSize))
	}

	m := kernel.New(cfg)
	if err := m.Restore(joined2); err != nil {
		panic(fmt.Sprintf("bench: ckpt delta restore: %v", err))
	}
	assertBitEq(w.resume(m, 2), want)

	dirtyMB := float64(region) * deltaFrac / 100 / (1 << 20)
	return []string{fmt.Sprintf("%dM", region>>20), "Δ2",
		iv(int64(len(img2) >> 10)),
		f2(float64(len(img2)>>10) / dirtyMB),
		iv(int64(deltaLogical >> 10)),
		f2(float64(len(img2)) / float64(deltaLogical)),
		iv(int64(deltaStored >> 10)),
		f2(float64(deltaStored) / 1024 / dirtyMB),
		"bit-eq"}
}

func assertBitEq(got, want kernel.RunResult) {
	if got.Ret != want.Ret || got.VT != want.VT {
		panic(fmt.Sprintf("bench: ckpt resume diverged: got ret=%d vt=%d, want ret=%d vt=%d",
			got.Ret, got.VT, want.Ret, want.VT))
	}
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

// layout re-derives the workload's addresses (deterministic bump
// allocation; identical on fresh start and resume).
func (w ckptWorkload) layout(rt *core.RT) (data vm.Addr, acc vm.Addr) {
	acc = rt.Alloc(8, 8)
	data = rt.Alloc(uint64(w.touchedPages(w.maxFrac()))<<vm.PageShift, vm.PageSize)
	return
}

// phase runs one fork/join round.
func (w ckptWorkload) phase(rt *core.RT, data, acc vm.Addr, p int) {
	touched := w.touchedPages(w.fracOf(p))
	rets, err := rt.ParallelDo(w.threads, func(t *core.Thread) uint64 {
		lo := t.ID * touched / w.threads
		hi := (t.ID + 1) * touched / w.threads
		var sum uint64
		for i := lo; i < hi; i++ {
			a := data + vm.Addr(i)<<vm.PageShift
			// The per-page term keeps page contents distinct, so the
			// chunk columns measure the store, not accidental dedup of a
			// degenerate all-pages-identical workload.
			v := t.Env().ReadU64(a)*6364136223846793005 + uint64(i)*2654435761 + uint64(p*31+t.ID+1)
			t.Env().WriteU64(a, v)
			sum += v
		}
		return sum
	})
	if err != nil {
		panic(fmt.Sprintf("bench: ckpt phase: %v", err))
	}
	h := rt.Env().ReadU64(acc)
	for _, r := range rets {
		h = h*31 + r
	}
	rt.Env().WriteU64(acc, h)
}

// run executes phases [start, phases) on a fresh machine (start 0) —
// onBarrier, when set, is called after each phase and may stop the run.
func (w ckptWorkload) run(cfg kernel.Config, start int, st *core.RTState,
	onBarrier func(env *kernel.Env, after int) bool) kernel.RunResult {
	m := kernel.New(cfg)
	return w.drive(m, start, st, onBarrier)
}

// imagesAt runs the workload on a fresh machine, checkpoints at each of
// the given barriers (ascending) and stops the run at the last.
func (w ckptWorkload) imagesAt(cfg kernel.Config, barriers ...int) [][]byte {
	var imgs [][]byte
	res := w.run(cfg, 0, nil, func(env *kernel.Env, after int) bool {
		if after == barriers[len(imgs)] {
			img, err := env.Checkpoint(kernel.CheckpointOpts{})
			if err != nil {
				panic(fmt.Sprintf("bench: ckpt save: %v", err))
			}
			imgs = append(imgs, img)
		}
		return len(imgs) < len(barriers)
	})
	if res.Err != nil {
		panic(fmt.Sprintf("bench: ckpt save run: %v", res.Err))
	}
	return imgs
}

// resume continues on a restored machine from the given barrier.
func (w ckptWorkload) resume(m *kernel.Machine, start int) kernel.RunResult {
	// The runtime bookkeeping is re-derivable here: the workload
	// allocates only in layout, so an attach with a replayed layout and
	// the layout-final cursor reproduces the checkpointed RT exactly.
	st := core.RTState{Base: core.SharedBase, Size: w.region}
	return w.drive(m, start, &st, nil)
}

func (w ckptWorkload) drive(m *kernel.Machine, start int, st *core.RTState,
	onBarrier func(env *kernel.Env, after int) bool) kernel.RunResult {
	return m.Run(func(env *kernel.Env) {
		var rt *core.RT
		var data, acc vm.Addr
		if st != nil {
			attached, err := core.Attach(env, core.RTState{
				Base: st.Base, Size: st.Size, Next: st.Base, // cursor set by layout below
			}, nil)
			if err != nil {
				panic(err)
			}
			rt = attached
			data, acc = w.layout(rt)
		} else {
			rt = core.New(env, w.region)
			data, acc = w.layout(rt)
			rt.Env().WriteU64(acc, 1)
		}
		for p := start; p < w.phases; p++ {
			w.phase(rt, data, acc, p)
			if onBarrier != nil && !onBarrier(env, p+1) {
				return
			}
		}
		env.SetRet(rt.Env().ReadU64(acc))
	}, 0)
}
