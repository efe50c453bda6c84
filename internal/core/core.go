// Package core implements Determinator's private workspace model for
// shared-memory multithreading (§2.2 and §4.4 of the paper): the primary
// contribution of the system, packaged as a small thread API.
//
// Each thread is a kernel space holding a complete private replica of the
// logically shared memory region. Fork copies the shared region into the
// child copy-on-write and snapshots it; the thread then reads and writes
// its replica with no interaction whatsoever with other threads. Join
// merges the child's changes since the snapshot back into the parent,
// byte by byte, detecting write/write conflicts. Barriers do the same for
// a whole group and hand every thread a fresh snapshot of the combined
// state.
//
// Consequences, exactly as the paper argues: read/write races cannot be
// expressed (a read can only observe causally prior writes), and
// write/write races become deterministic, reliably reported conflicts
// instead of silent schedule-dependent corruption.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Shared-region layout. The region sits at a 4 MiB-aligned base so kernel
// copies take the bulk table-sharing path; everything outside it is
// thread-private (our threads keep Go-native locals, the analogue of the
// paper's thread-private stacks located outside the shared region).
const (
	// SharedBase is the virtual address where the logically shared region
	// begins in every thread's address space.
	SharedBase vm.Addr = 0x1000_0000
	// DefaultSharedSize is the default size of the shared region.
	DefaultSharedSize uint64 = 64 << 20
)

// RT is the user-level runtime for one space: it manages the shared
// region, a deterministic allocator, and the fork/join/barrier protocol
// over the kernel's Put/Get/Ret API. The main program owns an RT for the
// root space; each thread gets an RT for its own space, so nested forks
// (e.g. recursive parallel quicksort) work the same at every level.
type RT struct {
	env  *kernel.Env
	base vm.Addr
	size uint64
	next vm.Addr // allocator cursor (application-chosen names, §2.4)

	// placed records, for every live thread id, the cluster node it was
	// forked on (nodeHome for plain Fork). Join and the collectors
	// resolve thread references through it, so a thread forked with
	// ForkOn can be joined with plain Join and grouped with its
	// node-mates by the barrier machinery.
	placed map[int]int

	// delegates holds, by concrete node id, the delegate collector of
	// every remote node a collection spanning nodes has used (tree.go).
	delegates map[int]*delegateState

	// parked lists the threads the last barrier collect found stopped at
	// their Barrier, in collection order: the threads resync restarts.
	// The caller resyncs its own within the same round; a delegate keeps
	// them across commands and resyncs them at the start of its next one.
	parked []int
}

// nodeHome is the placement value meaning "the caller's home node".
const nodeHome = -1

// Thread is the handle passed to thread functions. It embeds an RT for
// the thread's own space, so a thread can fork and join sub-threads.
type Thread struct {
	*RT
	// ID is the thread's number in its parent's namespace.
	ID int
}

// ThreadFunc is the body of a thread. Its return value is delivered to
// Join (the future idiom).
type ThreadFunc func(t *Thread) uint64

// New initializes a runtime for env's space, mapping the shared region.
// size is rounded up to a whole number of level-1 tables (4 MiB); 0
// selects DefaultSharedSize.
func New(env *kernel.Env, size uint64) *RT {
	if size == 0 {
		size = DefaultSharedSize
	}
	size = (size + vm.TableSpan - 1) / vm.TableSpan * vm.TableSpan
	env.SetPerm(SharedBase, size, vm.PermRW)
	return &RT{env: env, base: SharedBase, size: size, next: SharedBase}
}

// child wraps an already-initialized space (a forked thread): the shared
// region is inherited, not remapped.
func child(env *kernel.Env, base vm.Addr, size uint64) *RT {
	return &RT{env: env, base: base, size: size, next: base + vm.Addr(size)}
}

// Env exposes the underlying kernel environment for direct memory access.
func (rt *RT) Env() *kernel.Env { return rt.env }

// SharedRange reports the shared region.
func (rt *RT) SharedRange() (vm.Addr, uint64) { return rt.base, rt.size }

// Alloc reserves size bytes in the shared region, aligned to align (which
// must be a power of two; 0 means 8). Allocation is a deterministic bump
// pointer: addresses depend only on the sequence of Alloc calls, never on
// timing — the race-free namespace principle of §2.4. Threads must not
// allocate after forking has begun; allocate first, then fork.
func (rt *RT) Alloc(size uint64, align uint64) vm.Addr {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("core: Alloc align %d not a power of two", align))
	}
	a := (uint64(rt.next) + align - 1) &^ (align - 1)
	end := a + size
	if end > uint64(rt.base)+rt.size {
		panic(fmt.Sprintf("core: shared region exhausted (%d bytes requested)", size))
	}
	rt.next = vm.Addr(end)
	return vm.Addr(a)
}

// AllocPages reserves n whole pages, page-aligned.
func (rt *RT) AllocPages(n int) vm.Addr {
	return rt.Alloc(uint64(n)*vm.PageSize, vm.PageSize)
}

func (rt *RT) ref(node, id int) uint64 {
	if node < 0 {
		return uint64(id + 1)
	}
	return kernel.ChildOn(node, uint64(id+1))
}

// BadNodeError reports a Fork/Join naming a cluster node that does not
// exist. Before this was validated here, a negative node silently
// aliased the caller's home node through the child-reference encoding
// (ChildOn's node field is node+1, and field 0 means "home"), so a
// buggy placement computation corrupted the home node's thread
// namespace instead of failing.
type BadNodeError struct {
	Node  int // the node requested
	Nodes int // the cluster size
}

func (e *BadNodeError) Error() string {
	return fmt.Sprintf("core: node %d out of range (cluster has %d node(s))", e.Node, e.Nodes)
}

// ErrBadThreadID reports a thread id outside the per-node child index
// range; larger ids would wrap in the reference encoding and alias
// another thread.
var ErrBadThreadID = errors.New("core: thread id out of range")

// checkPlacement validates a (node, id) pair before it is encoded into a
// child reference. node may be nodeHome.
func (rt *RT) checkPlacement(node, id int) error {
	if id < 0 || id+1 >= kernel.MaxChildIndex {
		return ErrBadThreadID
	}
	if node != nodeHome && (node < 0 || node >= rt.env.Nodes()) {
		return &BadNodeError{Node: node, Nodes: rt.env.Nodes()}
	}
	return nil
}

// nodeOf resolves a thread id to the node it was forked on (nodeHome if
// it was never recorded).
func (rt *RT) nodeOf(id int) int {
	if n, ok := rt.placed[id]; ok {
		return n
	}
	return nodeHome
}

// placedRef returns the child reference for a thread, wherever it lives.
func (rt *RT) placedRef(id int) uint64 { return rt.ref(rt.nodeOf(id), id) }

// record stores a thread's placement: the node its fork, and every later
// Put and Get of it, goes to.
func (rt *RT) record(node, id int) {
	if rt.placed == nil {
		rt.placed = make(map[int]int)
	}
	rt.placed[id] = node
}

// Fork starts thread id running fn with a private copy of the shared
// region, snapshotted as the merge reference (Put with Copy, Snap, Regs
// and Start, per §4.4).
func (rt *RT) Fork(id int, fn ThreadFunc) error {
	return rt.forkOn(nodeHome, id, fn)
}

// ForkOn is Fork onto a specific cluster node: the kernel migrates the
// caller there and creates the thread with that node as its home (§3.3).
// Out-of-range nodes — including negative ones, which the reference
// encoding would silently alias to the home node — return a
// *BadNodeError.
func (rt *RT) ForkOn(node, id int, fn ThreadFunc) error {
	if node < 0 {
		return &BadNodeError{Node: node, Nodes: rt.env.Nodes()}
	}
	return rt.forkOn(node, id, fn)
}

func (rt *RT) forkOn(node, id int, fn ThreadFunc) error {
	if err := rt.checkPlacement(node, id); err != nil {
		return err
	}
	rt.record(node, id)
	return rt.start([]int{id}, threadEntry(rt.base, rt.size, fn), Policy{})
}

// threadEntry is the program of a thread running fn over the shared
// region base+size. The thread's id is its Arg register, which the fork's
// Put loads, so one entry serves every thread a Start forks.
func threadEntry(base vm.Addr, size uint64, fn ThreadFunc) kernel.Prog {
	return func(env *kernel.Env) {
		env.SetRet(fn(&Thread{RT: child(env, base, size), ID: int(env.Arg())}))
	}
}

// Policy is what Start and Collect run threads under. The zero Policy is
// the fork/join runtime's own: no instruction limit, and a write/write
// conflict is an error. The deterministic scheduler's rounds (package
// dsched) arm a quantum and commit last-writer-wins. A Policy is a
// parameter in code, never configuration.
type Policy struct {
	// Limit is the instruction limit each started thread runs under; 0
	// runs it until it stops by itself.
	Limit int64
	// LWW merges last-writer-wins (vm.MergeLastWriter) instead of
	// failing on a write/write conflict.
	LWW bool
	// Started, if non-nil, receives what each thread's region copy did,
	// in start order: a resync learns from TablesShared how many of the
	// region's tables had gone stale.
	Started func(copied vm.CopyStats)
}

// Start starts the listed threads in list order, one Put per thread: copy
// rt's shared region into the thread's replica copy-on-write, snapshot it
// as the thread's merge reference, and start it under p's limit. The
// region is table-aligned, so the copy re-shares and charges only the
// tables the replica no longer shares with rt's, and the snapshot refresh
// likewise: restarting a thread whose replica is current costs one system
// call. A thread resumes where it stopped.
//
// With a non-nil entry the Puts fork the threads instead: each loads
// entry, with the thread's id in its Arg register. A thread Start forks
// is a home-node thread: Start drops whatever placement an earlier
// ForkOn or ParallelDoOn recorded under its id.
func (rt *RT) Start(ids []int, entry kernel.Prog, p Policy) error {
	if entry != nil {
		for _, id := range ids {
			if err := rt.checkPlacement(nodeHome, id); err != nil {
				return err
			}
			delete(rt.placed, id)
		}
	}
	return rt.start(ids, entry, p)
}

// start is Start over threads already placed: each Put goes to the node
// the thread was recorded on. It is the one Put that starts a thread.
func (rt *RT) start(ids []int, entry kernel.Prog, p Policy) error {
	var copied vm.CopyStats
	opts := kernel.PutOpts{
		Copy:  &kernel.CopyRange{Src: rt.base, Dst: rt.base, Size: rt.size},
		Snap:  true,
		Start: true,
		Limit: p.Limit,
	}
	if p.Started != nil {
		opts.Copied = &copied
	}
	var regs kernel.Regs
	if entry != nil {
		regs.Entry = entry
		opts.Regs = &regs
	}
	for _, id := range ids {
		regs.Arg = uint64(id)
		if err := rt.env.Put(rt.placedRef(id), opts); err != nil {
			return err
		}
		if p.Started != nil {
			p.Started(copied)
		}
	}
	return nil
}

// ConflictError wraps a merge conflict detected while joining a thread.
// When a collection spanning nodes finds a cross-node conflict while
// committing a remote node's pre-merged delta, the conflict can no
// longer be pinned on one thread: ThreadID is -1 and Node names the
// node whose delta clashed. The conflicting byte addresses and totals
// (Cause) are those of the same program collected on one node.
type ConflictError struct {
	ThreadID int
	Node     int // conflicting node for node-level attribution; else -1
	Cause    *vm.MergeConflictError
}

func (e *ConflictError) Error() string {
	if e.ThreadID < 0 {
		return fmt.Sprintf("core: merging node %d's delta: %v", e.Node, e.Cause)
	}
	return fmt.Sprintf("core: joining thread %d: %v", e.ThreadID, e.Cause)
}

func (e *ConflictError) Unwrap() error { return e.Cause }

// ThreadCrashError reports a thread that stopped on a fault or exception.
type ThreadCrashError struct {
	ThreadID int
	Status   kernel.Status
	Cause    error
}

func (e *ThreadCrashError) Error() string {
	return fmt.Sprintf("core: thread %d crashed (%v): %v", e.ThreadID, e.Status, e.Cause)
}

func (e *ThreadCrashError) Unwrap() error { return e.Cause }

// Join waits for thread id, merges its shared-region changes into the
// caller's replica, and returns the thread's result value. The thread is
// found wherever it was forked — placement is recorded by Fork/ForkOn.
// Write/write conflicts surface as *ConflictError — deterministically,
// independent of how execution was scheduled.
func (rt *RT) Join(id int) (uint64, error) {
	return rt.joinOn(rt.nodeOf(id), id)
}

// JoinOn joins a thread forked with ForkOn. Out-of-range nodes return a
// *BadNodeError.
func (rt *RT) JoinOn(node, id int) (uint64, error) {
	if node < 0 {
		return 0, &BadNodeError{Node: node, Nodes: rt.env.Nodes()}
	}
	return rt.joinOn(node, id)
}

func (rt *RT) joinOn(node, id int) (uint64, error) {
	if err := rt.checkPlacement(node, id); err != nil {
		return 0, err
	}
	if node != rt.nodeOf(id) {
		rt.record(node, id) // Collect finds the thread through its placement
	}
	var v uint64
	err := rt.join([]int{id}, func(_ int, r uint64) { v = r })
	return v, err
}

// Collect collects the listed threads strictly in list order, one merging
// Get per thread: the Get waits for the thread to stop and folds its
// shared-region changes since its snapshot into rt's replica, so an early
// finisher commits while later threads still run. The order, not the
// waiting, is what the combined state depends on. Each stop, with the
// merge's error, goes to stop; the first error stop returns ends the
// collect. Under the zero Policy a write/write conflict arrives as a
// *ConflictError naming the thread; under p.LWW the later merge wins.
func (rt *RT) Collect(ids []int, p Policy, stop func(id int, info kernel.ChildInfo, err error) error) error {
	for _, id := range ids {
		info, err := rt.env.Get(rt.placedRef(id), kernel.GetOpts{
			Regs:       true,
			Merge:      true,
			MergeRange: &kernel.Range{Addr: rt.base, Size: rt.size},
			MergeLWW:   p.LWW,
		})
		if err != nil {
			var mc *vm.MergeConflictError
			if errors.As(err, &mc) {
				err = &ConflictError{ThreadID: id, Node: -1, Cause: mc}
			}
		}
		if err := stop(id, info, err); err != nil {
			return err
		}
	}
	return nil
}

// park is a barrier's stop. A thread stopped at its Barrier is appended
// to rt.parked for resync. A thread that halted or crashed instead gets
// Put{Snap}, so the delta just merged is not merged again by a later
// collect, and a crash is its error.
func (rt *RT) park(id int, info kernel.ChildInfo, err error) error {
	switch {
	case err != nil:
		return err
	case info.Status == kernel.StatusRet:
		rt.parked = append(rt.parked, id)
		return nil
	}
	if err := rt.env.Put(rt.placedRef(id), kernel.PutOpts{Snap: true}); err != nil {
		return err
	}
	_, err = threadResult(id, info)
	return err
}

// join collects the listed threads with a join's stop: every thread's
// result goes to sink (0 where the merge failed), and collection goes on
// past an error, the first of which is returned at the end (ParallelDo's
// contract). The caller runs it over every group it collects itself; a
// delegate runs it over its own node's threads.
func (rt *RT) join(ids []int, sink func(id int, v uint64)) error {
	var first error
	_ = rt.Collect(ids, Policy{}, func(id int, info kernel.ChildInfo, err error) error {
		var v uint64
		if err == nil {
			v, err = threadResult(id, info)
		}
		sink(id, v)
		if first == nil {
			first = err
		}
		return nil
	})
	return first
}

// resync hands every parked thread a fresh copy of rt's replica as its
// new merge snapshot and restarts it, then empties rt.parked.
func (rt *RT) resync() error {
	parked := rt.parked
	rt.parked = rt.parked[:0]
	return rt.Start(parked, nil, Policy{})
}

// remote reports whether a collection hands node nd's group to nd's
// delegate: only when the collection spans more than one node, and never
// for the caller's home node.
func (rt *RT) remote(span bool, nd int) bool {
	return span && nd != rt.env.HomeNodeID()
}

// collectAll joins the grouped threads in node-then-thread order,
// passing each thread's result to sink, and returns the first error in
// that order once every thread is collected. Every remote group's
// delegate starts its collection first; the caller then collects its own
// groups in place and commits each remote node's delta in node order.
func (rt *RT) collectAll(nodes []int, groups map[int][]int, span bool, sink func(id int, v uint64)) error {
	if err := rt.dispatch(nodes, groups, span, dcmdJoin); err != nil {
		return err
	}
	var firstErr error
	for _, nd := range nodes {
		var err error
		if rt.remote(span, nd) {
			d := rt.delegate(nd)
			err = rt.treeCommit(d)
			for k, id := range groups[nd] {
				sink(id, d.box.rets[k])
			}
		} else {
			err = rt.join(groups[nd], sink)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// barrierAll is one barrier round over the grouped threads: collect
// every group in node-then-thread order, as collectAll does, then resync
// the caller's parked threads with the combined state. A delegate
// resyncs its own at the start of its next command, from the replica
// that command's dispatch refreshes. The first error ends the round;
// the delegates it started but did not commit are rendezvoused first,
// so none is left running a command.
func (rt *RT) barrierAll(nodes []int, groups map[int][]int, span bool) error {
	rt.parked = rt.parked[:0] // a round that failed left its list unresynced
	if err := rt.dispatch(nodes, groups, span, dcmdCollect); err != nil {
		return err
	}
	for i, nd := range nodes {
		var err error
		if rt.remote(span, nd) {
			err = rt.treeCommit(rt.delegate(nd))
		} else {
			err = rt.Collect(groups[nd], Policy{}, rt.park)
		}
		if err != nil {
			rt.syncAll(nodes[i+1:], span)
			return err
		}
	}
	return rt.resync()
}

// threadResult converts a collected thread's ChildInfo into the Join
// result contract.
func threadResult(id int, info kernel.ChildInfo) (uint64, error) {
	switch info.Status {
	case kernel.StatusHalted, kernel.StatusRet:
		return info.Regs.Ret, nil
	default:
		return 0, &ThreadCrashError{ThreadID: id, Status: info.Status, Cause: info.Err}
	}
}

// concreteNode maps nodeHome to the caller's actual home node id so
// threads forked either way group together.
func (rt *RT) concreteNode(node int) int {
	if node == nodeHome {
		return rt.env.HomeNodeID()
	}
	return node
}

// groupByNode buckets thread ids by the concrete node they were forked
// on and returns the ascending node order plus each node's ids in
// ascending thread order — the fixed node-then-thread order every
// collection commits merges in.
func (rt *RT) groupByNode(ids []int) ([]int, map[int][]int) {
	node := func(id int) int { return rt.concreteNode(rt.nodeOf(id)) }
	sorted := slices.Clone(ids)
	slices.SortFunc(sorted, func(a, b int) int {
		return cmp.Or(cmp.Compare(node(a), node(b)), cmp.Compare(a, b))
	})
	groups := make(map[int][]int)
	var nodes []int
	for i, j := 0, 0; i < len(sorted); i = j {
		n := node(sorted[i])
		for j = i + 1; j < len(sorted) && node(sorted[j]) == n; j++ {
		}
		nodes = append(nodes, n)
		groups[n] = sorted[i:j]
	}
	return nodes, groups
}

// ParallelDo forks threads 0..n-1 running fn and joins them all,
// returning their results. The first error (conflict or crash) aborts
// with that error after all threads have been collected.
//
// The threads are joined strictly in node-then-thread order — merging
// into a single parent replica is order-sensitive at the byte level, so a
// fixed order is what keeps results, errors and conflicts
// schedule-independent. Each Join blocks until its thread stops, so an
// early finisher is merged while later threads still run. On one node
// that order is plain thread-id order.
func (rt *RT) ParallelDo(n int, fn ThreadFunc) ([]uint64, error) {
	return rt.ParallelDoOn(n, nil, fn)
}

// ParallelDoOn is ParallelDo with explicit thread placement: thread i is
// forked on node place(i) (nodeHome for nil place, as ParallelDo). When
// the placement spans more than one node, each remote node's delegate
// forks, collects and pre-merges that node's threads, and the caller
// merges one delta per remote node (tree.go).
func (rt *RT) ParallelDoOn(n int, place func(i int) int, fn ThreadFunc) ([]uint64, error) {
	nodes, groups, span, err := rt.forkAll(n, place, fn)
	if err != nil {
		return nil, err
	}
	res := make([]uint64, n)
	err = rt.collectAll(nodes, groups, span, func(id int, v uint64) { res[id] = v })
	return res, err
}

// forkAll validates and records the placement of threads 0..n-1, groups
// them once in node-then-thread order, the grouping every later
// collection of them reuses, and forks them. It reports whether the
// placement spans more than one node: then each remote node's group is
// forked by that node's delegate. The caller forks every other group
// itself.
func (rt *RT) forkAll(n int, place func(i int) int, fn ThreadFunc) ([]int, map[int][]int, bool, error) {
	for i := 0; i < n; i++ {
		node := nodeHome
		if place != nil {
			node = place(i)
		}
		if err := rt.checkPlacement(node, i); err != nil {
			return nil, nil, false, err
		}
		rt.record(node, i)
	}
	nodes, groups := rt.groupByNode(ids(n))
	span := len(nodes) > 1
	entry := threadEntry(rt.base, rt.size, fn)
	for _, nd := range nodes {
		var err error
		if rt.remote(span, nd) {
			err = rt.treeFork(nd, groups[nd], fn)
		} else {
			err = rt.start(groups[nd], entry, Policy{})
		}
		if err != nil {
			return nil, nil, false, err
		}
	}
	return nodes, groups, span, nil
}

// ids returns [0, n).
func ids(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Barrier, called from a thread, stops the thread until its parent's
// next barrier round (RunPhases): the thread's changes so far are merged
// into the parent's replica and the thread resumes with a fresh snapshot
// of the combined state (§4.4, the OpenMP-style data-parallel
// foundation).
func (t *Thread) Barrier() {
	t.env.Ret()
}

// RunPhases runs n persistent threads through a sequence of phases
// separated by barriers: the lock-step structure of Figure 1 and of the
// fft/lu benchmarks. fn must call no barrier itself; the runtime inserts
// one after every phase except the last.
func (rt *RT) RunPhases(n, phases int, fn func(t *Thread, phase int)) error {
	return rt.RunPhasesOn(n, phases, nil, fn)
}

// RunPhasesOn is RunPhases with explicit thread placement, the
// cluster-scale form: thread i runs on node place(i) for every phase.
// The barrier rounds and the final join reuse forkAll's grouping, so a
// placement spanning nodes is collected through the remote nodes'
// delegates every round, as ParallelDoOn's is. The final join collects
// every thread even after one fails; the error returned is the first in
// node-then-thread order.
func (rt *RT) RunPhasesOn(n, phases int, place func(i int) int, fn func(t *Thread, phase int)) error {
	nodes, groups, span, err := rt.forkAll(n, place, func(t *Thread) uint64 {
		for p := 0; p < phases; p++ {
			fn(t, p)
			if p < phases-1 {
				t.Barrier()
			}
		}
		return 0
	})
	if err != nil {
		return err
	}
	for p := 0; p < phases-1; p++ {
		if err := rt.barrierAll(nodes, groups, span); err != nil {
			return err
		}
	}
	return rt.collectAll(nodes, groups, span, func(int, uint64) {})
}

// Options configures a Run.
type Options struct {
	Kernel     kernel.Config
	SharedSize uint64
}

// Run builds a machine, runs main as its root program with a fresh
// runtime, and returns the result — the quickest way to execute a
// deterministic parallel program.
func Run(opts Options, main func(rt *RT) uint64) kernel.RunResult {
	m := kernel.New(opts.Kernel)
	return m.Run(func(env *kernel.Env) {
		env.SetRet(main(New(env, opts.SharedSize)))
	}, 0)
}
