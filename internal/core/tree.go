package core

// Delegate collectors: the cross-node half of a collection (§3.3 at
// cluster scale). When ParallelDoOn or RunPhasesOn places its threads on
// more than one node, the caller does not visit every remote thread
// itself. It keeps a *delegate collector* — a caller-owned space homed
// on each remote node — that forks, collects and pre-merges that node's
// threads against the shared snapshot, strictly in thread order. The
// caller collects its home node's threads in place and folds one
// pre-merged delta per remote node, strictly in node order, so the
// overall commit order is node-then-thread and the resulting bytes and
// conflict bytes are those of the same program collected on one node.
// What changes is the traffic: the caller's cross-node work drops from
// O(threads) per round to O(nodes) batched delta shipments, and the
// per-node merges run concurrently in virtual time on their own nodes'
// CPUs. A collection confined to one node, home or remote, has nothing
// to pipeline: the caller collects it directly.
//
// The caller drives a delegate through a command mailbox (delegateBox).
// The mailbox is written only while the delegate is stopped at its Ret,
// and results are read back only after the next rendezvous; the
// kernel's stop/start synchronization provides the happens-before
// edges, so the exchange is ordered exactly like register state moved
// by Put/Get and introduces no nondeterminism. (Thread entry closures
// already travel the same way, via Regs.Entry.)

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// delegateIdx is the reserved per-node child index delegates occupy in
// the caller's namespace; checkPlacement keeps thread ids below it.
const delegateIdx = kernel.MaxChildIndex

// delegateState is the caller's handle on one node's delegate.
type delegateState struct {
	node int
	ref  uint64
	box  *delegateBox
	made bool // delegate space exists and runs the command loop
}

type dcmd int

const (
	dcmdNone    dcmd = iota
	dcmdFork         // fork the listed threads from the delegate's replica
	dcmdCollect      // barrier collect: resync threads parked by the previous collect, then merge
	dcmdJoin         // join collect: the same resync, then merge and capture results
)

// delegateBox is the caller↔delegate command mailbox (see the comment
// at the top of this file for the synchronization argument). The caller
// writes a command only after a rendezvous proved the delegate stopped:
// every command ends in a collecting Get (treeCommit) or an explicit
// sync (treeSync).
type delegateBox struct {
	cmd dcmd
	ids []int      // thread ids the command applies to, ascending
	fn  ThreadFunc // a fork command's thread body

	// Results, valid after the delegate's next stop. rets holds a join
	// command's results, one per ids entry. err is the first unreported
	// error, in thread order; it survives across commands until the
	// caller reads it (takeErr), so an error from work the caller did
	// not wait for — a barrier round's deferred resync — surfaces at the
	// next collection instead of vanishing.
	rets []uint64
	err  error
}

// fail records a command error unless an earlier one is still unread.
func (b *delegateBox) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// takeErr reads and clears the recorded error. Caller-side, only while
// the delegate is stopped.
func (b *delegateBox) takeErr() error {
	err := b.err
	b.err = nil
	return err
}

// delegate returns (lazily creating the caller-side state for) node's
// delegate.
func (rt *RT) delegate(node int) *delegateState {
	d := rt.delegates[node]
	if d == nil {
		if rt.delegates == nil {
			rt.delegates = make(map[int]*delegateState)
		}
		d = &delegateState{
			node: node,
			ref:  kernel.ChildOn(node, delegateIdx),
			box:  &delegateBox{},
		}
		rt.delegates[node] = d
	}
	return d
}

// delegateEntry is the program of a per-node delegate collector: execute
// the mailbox command, stop, repeat. The space never halts; shutdown
// discards it like any parked space.
func delegateEntry(box *delegateBox, base vm.Addr, size uint64) kernel.Prog {
	return func(env *kernel.Env) {
		d := child(env, base, size)
		for {
			box.run(d)
			env.Ret()
		}
	}
}

// run executes the current command inside the delegate. A fork starts a
// new collection, so it drops whatever a failed round left on d.parked:
// those threads stay parked, as the caller's own do. Both collect
// commands first resync the threads the previous collect left parked at
// a barrier: by then the caller has committed the round and refreshed
// the delegate's replica, so the deferred resync hands them the combined
// state, as the caller's own resync does, without a separate command
// dispatch. Then the delegate collects its threads with the stop the
// caller's own collect of that kind uses: the barrier's park or the
// join's result sink.
func (b *delegateBox) run(d *RT) {
	switch b.cmd {
	case dcmdFork:
		d.parked = d.parked[:0]
		b.fail(d.Start(b.ids, threadEntry(d.base, d.size, b.fn), Policy{}))
	case dcmdCollect:
		b.fail(d.resync())
		b.fail(d.Collect(b.ids, Policy{}, d.park))
	case dcmdJoin:
		b.rets = b.rets[:0]
		b.fail(d.resync())
		b.fail(d.join(b.ids, func(_ int, v uint64) { b.rets = append(b.rets, v) }))
	}
}

// treeSend loads the delegate's pending command and starts it. The same
// Put re-copies the caller's shared region into the delegate and
// refreshes its merge snapshot: fork batches and the resync that opens
// every collect command need the replica current. The first send also
// loads the command-loop program.
func (rt *RT) treeSend(d *delegateState) error {
	opts := kernel.PutOpts{
		Copy:  &kernel.CopyRange{Src: rt.base, Dst: rt.base, Size: rt.size},
		Snap:  true,
		Start: true,
	}
	if !d.made {
		opts.Regs = &kernel.Regs{Entry: delegateEntry(d.box, rt.base, rt.size)}
		d.made = true
	}
	return rt.env.Put(d.ref, opts)
}

// treeSync rendezvouses with the (stopped or stopping) delegate and
// surfaces the first unreported error of its commands.
func (rt *RT) treeSync(d *delegateState) error {
	if _, err := rt.env.Get(d.ref, kernel.GetOpts{}); err != nil {
		return err
	}
	return d.box.takeErr()
}

// treeCommit folds one node's pre-merged delta into the caller's
// replica with one merging Get. It leaves the delegate's snapshot as it
// is: every command starts with treeSend's Put{Copy, Snap, Start}, which
// re-snapshots the delegate before anything reads the snapshot again.
// The merging Get doubles as the rendezvous with the delegate's
// collection command, whose recorded error — thread-attributed, earlier
// in the node-then-thread order — takes precedence over a conflict found
// here. A conflict here is a cross-node conflict — bytes changed by this
// node's threads and by an earlier-merged node (or the caller itself) —
// and is attributed to the node; the byte addresses are those a one-node
// collection reports.
func (rt *RT) treeCommit(d *delegateState) error {
	_, err := rt.env.Get(d.ref, kernel.GetOpts{
		Merge:      true,
		MergeRange: &kernel.Range{Addr: rt.base, Size: rt.size},
	})
	var merr error
	if err != nil {
		var mc *vm.MergeConflictError
		if errors.As(err, &mc) {
			merr = &ConflictError{ThreadID: -1, Node: d.node, Cause: mc}
		} else {
			merr = err
		}
	}
	if boxErr := d.box.takeErr(); boxErr != nil {
		merr = boxErr
	}
	return merr
}

// treeFork has node's delegate fork the listed threads running fn: the
// delegate's replica is refreshed from the caller and each thread forks
// from it locally, with a local snapshot.
func (rt *RT) treeFork(node int, ids []int, fn ThreadFunc) error {
	d := rt.delegate(node)
	d.box.cmd, d.box.ids, d.box.fn = dcmdFork, ids, fn
	if err := rt.treeSend(d); err != nil {
		return err
	}
	return rt.treeSync(d)
}

// dispatch starts cmd on the delegate of every remote group, in
// descending node order: the caller ends its tour next to the lowest
// node, so the ascending commit walk that follows revisits the nodes
// without a wasted hop. Dispatch order is invisible to results — commits
// are what's ordered. If a send fails, the delegates already started are
// rendezvoused before the error returns.
func (rt *RT) dispatch(nodes []int, groups map[int][]int, span bool, cmd dcmd) error {
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := nodes[i]
		if !rt.remote(span, nd) {
			continue
		}
		d := rt.delegate(nd)
		d.box.cmd, d.box.ids, d.box.fn = cmd, groups[nd], nil
		if err := rt.treeSend(d); err != nil {
			rt.syncAll(nodes[i+1:], span)
			return err
		}
	}
	return nil
}

// syncAll rendezvouses with the delegates of the listed nodes' remote
// groups and discards what their commands report: the collection they
// belong to has already failed with an earlier error.
func (rt *RT) syncAll(nodes []int, span bool) {
	for _, nd := range nodes {
		if rt.remote(span, nd) {
			_ = rt.treeSync(rt.delegate(nd))
		}
	}
}
