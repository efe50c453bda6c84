package bench

import (
	"time"

	"repro/internal/vm"
)

// MergeWorkload is a reusable fork scenario: a fully-written parent and
// per-thread children that each dirtied a fraction of their partition.
// It is shared between benchmark/'s vm.merge drives and the repo-root
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
