package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/vm"
)

// MergeEngine measures the parallel merge engine directly at the vm layer:
// join throughput versus dirty fraction and thread count, serial versus
// parallel workers, plus the pte scan dirty-page tracking leaves.
// Two workload shapes bracket the join cost space:
//
//   - adopt: only the children write, so every dirtied page is adopted by
//     pointer move — the cheapest possible join;
//   - compare: the parent touches every page after forking, so every
//     dirtied child page is byte-compared — the 4 KiB-per-page slow path
//     that dominates fine-grained workloads, and the one host parallelism
//     accelerates.
//
// Merge results are engine-independent (see the vm property tests); these
// rows report the wall-clock and iteration effort behind that equivalence.
func MergeEngine(o Options) Table {
	pages := 16 * 1024 // 64 MiB shared region, 16 level-2 tables
	threadSteps := []int{1, 2, 4, 8}
	dirtyFracs := []float64{0.1, 1.0}
	if o.Quick {
		pages = 4 * 1024
		threadSteps = []int{2, 4}
	}
	// Floor the worker count so the concurrent engine is exercised (and
	// its coordination overhead visible) even on small hosts; extra
	// workers beyond GOMAXPROCS cannot help, only cost a little.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}

	t := Table{
		ID: "merge",
		Title: fmt.Sprintf("merge engine: serial vs %d-worker parallel join (%d-page region)",
			workers, pages),
		Header: []string{"scenario", "threads", "dirty", "serial", "parallel", "speedup",
			"gbps", "scan-dirty", "adopted", "compared"},
	}
	for _, scenario := range []string{"adopt", "compare"} {
		for _, threads := range threadSteps {
			for _, frac := range dirtyFracs {
				r := measureMerge(pages, threads, frac, scenario == "compare", workers)
				gbps := "-"
				if r.steadyCompared > 0 {
					gbps = f2(float64(r.steadyCompared) * vm.PageSize / r.steady.Seconds() / 1e9)
				}
				t.AddRow(scenario, iv(int64(threads)), pct(frac),
					ms(r.serial.Seconds()*1000), ms(r.parallel.Seconds()*1000),
					f2(r.serial.Seconds()/r.parallel.Seconds()), gbps,
					iv(int64(r.scanDirty)), iv(int64(r.adopted)), iv(int64(r.compared)))
			}
		}
	}
	t.Note("serial/parallel join the same %d children; scan-dirty is the ptes the dirty-guided walk examines;", threadSteps[len(threadSteps)-1])
	t.Note("compare rows byte-compare every dirty page (parent touched), adopt rows move ptes only.")
	t.Note("gbps times the page-compare slow path itself — a steady-state re-join against an")
	t.Note("already-owned destination, the master's situation after round one, so the one-time COW")
	t.Note("breaks of the first join do not mask the kernel: compared bytes per second. wall columns")
	t.Note("are host measurements; merged bytes, stats and conflicts are identical throughout.")
	return t
}

// MergeWorkload is a reusable fork scenario: a fully-written parent and
// per-thread children that each dirtied a fraction of their partition.
// It is shared between the merge experiment table and the repo-root
// BenchmarkMerge so both measure exactly the same work.
type MergeWorkload struct {
	Parent   *vm.Space
	Children []*vm.Space
	Snaps    []*vm.Space
	Span     uint64
}

// BuildMergeWorkload forks threads children off a fully-written parent of
// the given page count; each child dirties frac of its partition with
// bytes that differ from the snapshot. With parentDirty the parent then
// touches one byte of every page, so child-dirtied pages cannot be
// adopted and every join takes the byte-compare slow path.
func BuildMergeWorkload(pages, threads int, frac float64, parentDirty bool) *MergeWorkload {
	w := &MergeWorkload{Span: uint64(pages) * vm.PageSize}
	w.Parent = vm.NewSpace()
	if err := w.Parent.SetPerm(0, w.Span, vm.PermRW); err != nil {
		panic(err)
	}
	buf := make([]byte, vm.PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for p := 0; p < pages; p++ {
		if err := w.Parent.Write(vm.Addr(p)*vm.PageSize, buf); err != nil {
			panic(err)
		}
	}
	inv := make([]byte, 1024)
	for i := range inv {
		inv[i] = ^buf[128+i]
	}
	per := pages / threads
	for c := 0; c < threads; c++ {
		child := vm.NewSpace()
		child.CopyAllFrom(w.Parent)
		snap, _ := child.Snapshot()
		dirty := int(float64(per) * frac)
		for p := 0; p < dirty; p++ {
			// A 1 KiB span that differs from the snapshot, placed away
			// from the byte the parent may dirty so no conflict arises.
			a := vm.Addr(c*per+p)*vm.PageSize + 128
			if err := child.Write(a, inv); err != nil {
				panic(err)
			}
		}
		w.Children = append(w.Children, child)
		w.Snaps = append(w.Snaps, snap)
	}
	if parentDirty {
		for p := 0; p < pages; p++ {
			if err := w.Parent.Write(vm.Addr(p)*vm.PageSize+7, []byte{0xa5}); err != nil {
				panic(err)
			}
		}
	}
	return w
}

// JoinAll merges every child into a fresh COW copy of the parent, in
// thread-id order, and reports the summed stats and wall time.
func (w *MergeWorkload) JoinAll(cfg vm.MergeConfig) (vm.MergeStats, time.Duration) {
	dst := vm.NewSpace()
	dst.CopyAllFrom(w.Parent)
	var total vm.MergeStats
	start := time.Now()
	for c := range w.Children {
		st, err := vm.MergeEx(dst, w.Children[c], w.Snaps[c], 0, w.Span, cfg)
		if err != nil {
			panic(err)
		}
		total.Add(st)
	}
	wall := time.Since(start)
	dst.Free()
	return total, wall
}

// Free releases every space the workload holds.
func (w *MergeWorkload) Free() {
	for i := range w.Children {
		w.Children[i].Free()
		w.Snaps[i].Free()
	}
	w.Parent.Free()
}

type mergeMeasurement struct {
	serial, parallel time.Duration
	steady           time.Duration // best steady-state slow-path join
	scanDirty        int
	adopted          int
	compared         int
	steadyCompared   int // pages the steady-state join byte-compares
}

// steadyJoin times the page-compare slow path itself. The children are
// first merged into a persistent copy of the parent to break its COW
// sharing (and convert pointer-adopted pages into diverged ones), then
// re-merged against the now privately-owned destination — the dsched
// master's steady state after round one. Re-merges use last-writer-wins
// because the destination already holds the childrens' bytes, which
// strict mode would report as conflicts against the snapshot. The best
// wall of reps joins and the per-join compared-page count are returned.
func (w *MergeWorkload) steadyJoin(reps int) (best time.Duration, compared int) {
	dst := vm.NewSpace()
	dst.CopyAllFrom(w.Parent)
	defer dst.Free()
	join := func() (int, time.Duration) {
		pages := 0
		start := time.Now()
		for c := range w.Children {
			st, err := vm.MergeEx(dst, w.Children[c], w.Snaps[c], 0, w.Span,
				vm.MergeConfig{Mode: vm.MergeLastWriter})
			if err != nil {
				panic(err)
			}
			pages += st.PagesCompared
		}
		return pages, time.Since(start)
	}
	join() // warm: break COW, un-adopt, own every page
	join() // warm: re-break pages the un-adopt re-shared
	for r := 0; r < reps; r++ {
		var wall time.Duration
		compared, wall = join()
		if r == 0 || wall < best {
			best = wall
		}
	}
	return best, compared
}

func measureMerge(pages, threads int, frac float64, parentDirty bool, workers int) mergeMeasurement {
	w := BuildMergeWorkload(pages, threads, frac, parentDirty)
	defer w.Free()
	var m mergeMeasurement
	const reps = 3
	for r := 0; r < reps; r++ {
		st, serial := w.JoinAll(vm.MergeConfig{})
		_, parallel := w.JoinAll(vm.MergeConfig{Workers: workers})
		if r == 0 || serial < m.serial {
			m.serial = serial
		}
		if r == 0 || parallel < m.parallel {
			m.parallel = parallel
		}
		m.scanDirty = st.PtesScanned
		m.adopted = st.PagesAdopted
		m.compared = st.PagesCompared
	}
	m.steady, m.steadyCompared = w.steadyJoin(reps)
	return m
}
