package workload

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// The qsort benchmark is a recursive parallel quicksort over uint32s
// (§6.2): partition in the parent, fork a thread per half, recurse until
// the fork depth covers the requested parallelism, sort leaves in place.
// Each recursion level's halves are disjoint array ranges, so all merges
// are conflict-free; the partitioning pass itself is the serial fraction
// that limits scaling, on Determinator and Linux alike.

// qsortTicksPerElem scales the n·log n comparison/swap cost model.
const qsortTicksPerElem = 2

// QsortSeq is the sequential in-place quicksort used at the leaves (and
// by the sequential reference), written out so both worlds run byte-
// identical comparison logic.
func QsortSeq(a []uint32) {
	for len(a) > 12 {
		p := QsortPartition(a)
		if p < len(a)-p-1 {
			QsortSeq(a[:p])
			a = a[p+1:]
		} else {
			QsortSeq(a[p+1:])
			a = a[:p]
		}
	}
	// Insertion sort for small runs.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// QsortPartition partitions around a median-of-three pivot and returns
// the pivot's final index.
func QsortPartition(a []uint32) int {
	n := len(a)
	mid := n / 2
	if a[0] > a[mid] {
		a[0], a[mid] = a[mid], a[0]
	}
	if a[mid] > a[n-1] {
		a[mid], a[n-1] = a[n-1], a[mid]
		if a[0] > a[mid] {
			a[0], a[mid] = a[mid], a[0]
		}
	}
	pivot := a[mid]
	a[mid], a[n-1] = a[n-1], a[mid]
	i := 0
	for j := 0; j < n-1; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[n-1] = a[n-1], a[i]
	return i
}

// qsortDepth chooses the fork depth for a thread count.
func qsortDepth(threads int) int {
	d := 0
	for 1<<d < threads {
		d++
	}
	return d
}

// forker abstracts core.RT and core.Thread so recursion works at every
// level of the thread tree.
type forker interface {
	Fork(id int, fn core.ThreadFunc) error
	Join(id int) (uint64, error)
	Env() *kernel.Env
}

// QsortDet sorts size deterministic pseudo-random values on a fork tree
// of the given width and returns the sorted array's checksum.
func QsortDet(rt *core.RT, threads, size int) uint64 {
	base := rt.Alloc(uint64(4*size), vm.PageSize)
	rt.Env().WriteU32s(base, GenU32(size, 0x50F7))
	qsortDetRange(rtForker{rt}, base, 0, size, qsortDepth(threads))
	out := make([]uint32, size)
	rt.Env().ReadU32s(base, out)
	return ChecksumU32(out)
}

// rtForker / thForker adapt the two runtime types to one recursion.
type rtForker struct{ rt *core.RT }

func (f rtForker) Fork(id int, fn core.ThreadFunc) error { return f.rt.Fork(id, fn) }
func (f rtForker) Join(id int) (uint64, error)           { return f.rt.Join(id) }
func (f rtForker) Env() *kernel.Env                      { return f.rt.Env() }

type thForker struct{ th *core.Thread }

func (f thForker) Fork(id int, fn core.ThreadFunc) error { return f.th.Fork(id, fn) }
func (f thForker) Join(id int) (uint64, error)           { return f.th.Join(id) }
func (f thForker) Env() *kernel.Env                      { return f.th.Env() }

func qsortDetRange(f forker, base vm.Addr, lo, hi, depth int) {
	n := hi - lo
	if n <= 1 {
		return
	}
	env := f.Env()
	if depth == 0 || n < 64 {
		buf := make([]uint32, n)
		env.ReadU32s(base+vm.Addr(4*lo), buf)
		QsortSeq(buf)
		lg := 1
		for 1<<lg < n {
			lg++
		}
		env.Tick(int64(n) * int64(lg) * qsortTicksPerElem)
		env.WriteU32s(base+vm.Addr(4*lo), buf)
		return
	}
	// Partition here (the serial fraction), then fork the halves.
	buf := make([]uint32, n)
	env.ReadU32s(base+vm.Addr(4*lo), buf)
	p := QsortPartition(buf)
	env.Tick(int64(n) * 2)
	env.WriteU32s(base+vm.Addr(4*lo), buf)

	halves := [2][2]int{{lo, lo + p}, {lo + p + 1, hi}}
	for c := 0; c < 2; c++ {
		c := c
		if err := f.Fork(c, func(t *core.Thread) uint64 {
			qsortDetRange(thForker{t}, base, halves[c][0], halves[c][1], depth-1)
			return 0
		}); err != nil {
			panic(err)
		}
	}
	for c := 0; c < 2; c++ {
		if _, err := f.Join(c); err != nil {
			panic(err)
		}
	}
}
