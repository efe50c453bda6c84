package core

// The sharded cross-node barrier tree (§3.3 at cluster scale): instead
// of one flat collector visiting every thread on every node, the master
// keeps a *delegate collector* — a master-owned space homed on each node
// — that forks, collects and pre-merges its node-local threads against
// the shared snapshot, strictly in thread order. The master then folds
// only one pre-merged delta per node, strictly in node order, so the
// overall commit order is the same node-then-thread order the flat
// collector uses and the resulting bytes, conflict reports and merge
// statistics are bit-identical to it. What changes is the traffic: the
// root's cross-node work drops from O(threads) per round (visiting and
// merging every remote thread itself) to O(nodes) batched delta
// shipments, and the per-node merges run concurrently in virtual time on
// their own nodes' CPUs — the per-node merge pipeline.
//
// The master drives a delegate through a command mailbox (delegateBox).
// The mailbox is written by the master only while the delegate is
// stopped at its Ret, and results are read back only after the next
// rendezvous; the kernel's stop/start synchronization provides the
// happens-before edges, so the exchange is ordered exactly like register
// state moved by Put/Get and introduces no nondeterminism. (Thread entry
// closures already travel the same way, via Regs.Entry.)

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// delegateIdx is the reserved per-node child index delegates occupy in
// the master's namespace; checkPlacement keeps thread ids below it.
const delegateIdx = kernel.MaxChildIndex

// treeState is the master-side record of the sharded collector.
type treeState struct {
	delegates map[int]*delegateState // by concrete node id
}

// delegateState is the master's handle on one node's delegate.
type delegateState struct {
	node int
	ref  uint64
	box  *delegateBox
	made bool // delegate space exists and runs the command loop
}

// forkReq names one thread a fork command creates.
type forkReq struct {
	id int
	fn ThreadFunc
}

type dcmd int

const (
	dcmdNone    dcmd = iota
	dcmdFork         // fork the listed threads from the delegate's replica
	dcmdCollect      // barrier collect: resync threads parked by the previous collect, then merge
	dcmdJoin         // join collect: the same resync, then merge and capture results
)

// delegateBox is the master↔delegate command mailbox (see the package
// comment above for the synchronization argument). The master writes a
// command only immediately after a rendezvous proved the delegate
// stopped; every command sequence below guarantees that by ending with
// a collecting Get (treeCommit) or an explicit sync.
type delegateBox struct {
	cmd   dcmd
	forks []forkReq
	ids   []int // thread ids the command applies to, ascending

	// Results, valid after the delegate's next stop. rets holds a join
	// command's results, one per ids entry. err is the first unreported
	// error, in thread order; it survives across commands until the
	// master reads it (takeErr), so an error from a command whose
	// completion the master did not wait for — a barrier round's resync
	// — surfaces at the next collection instead of vanishing.
	rets []uint64
	err  error
}

func (b *delegateBox) set(cmd dcmd, ids []int, forks []forkReq) {
	b.cmd, b.ids, b.forks = cmd, ids, forks
}

// fail records a command error unless an earlier one is still unread.
func (b *delegateBox) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// takeErr reads and clears the recorded error. Master-side, only while
// the delegate is stopped.
func (b *delegateBox) takeErr() error {
	err := b.err
	b.err = nil
	return err
}

// SetTreeJoin switches this runtime's collectors between the flat
// single-collector protocol and the sharded barrier tree. Toggle it
// before forking the threads a collection will cover: delegates must own
// their node's threads from the fork on. Checksums, conflict bytes and
// merge statistics are identical in both modes at any node count;
// virtual time and the root's cross-node message count are what the tree
// improves.
func (rt *RT) SetTreeJoin(on bool) {
	switch {
	case on && rt.tree == nil:
		rt.tree = &treeState{delegates: make(map[int]*delegateState)}
	case !on:
		rt.tree = nil
	}
}

// treeDelegate returns (lazily creating master-side state for) node's
// delegate.
func (rt *RT) treeDelegate(node int) *delegateState {
	d := rt.tree.delegates[node]
	if d == nil {
		d = &delegateState{
			node: node,
			ref:  kernel.ChildOn(node, delegateIdx),
			box:  &delegateBox{},
		}
		rt.tree.delegates[node] = d
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

// run executes the current command inside the delegate. Both collect
// commands first resync the threads the previous collect left parked at
// a barrier (d.parked): by then the master has committed the round and
// refreshed the delegate's replica, so the deferred resync hands them
// the combined state, as the flat collector's resync does, without a
// separate command dispatch. Then the delegate collects its threads
// with the same collect the flat collector runs.
func (b *delegateBox) run(d *RT) {
	switch b.cmd {
	case dcmdFork:
		for _, r := range b.forks {
			if err := d.Fork(r.id, r.fn); err != nil {
				b.fail(err)
				return
			}
		}
	case dcmdCollect:
		b.fail(d.resync())
		b.fail(d.collect(b.ids, nil))
	case dcmdJoin:
		b.rets = b.rets[:0]
		b.fail(d.resync())
		b.fail(d.collect(b.ids, func(_ int, v uint64) { b.rets = append(b.rets, v) }))
	}
}

// treeSend loads the delegate's pending command and starts it. The same
// Put re-copies the master's shared region into the delegate and
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

// treeCommit folds one node's pre-merged delta into the master's
// replica and refreshes the delegate's snapshot so the committed state
// becomes the reference for its next collection. The merging Get doubles
// as the rendezvous with the delegate's collection command, whose
// recorded error — thread-attributed, earlier in the node-then-thread
// order — takes precedence over a conflict found here. A conflict here
// is a cross-node conflict — bytes changed by this node's threads and by
// an earlier-merged node (or the master itself) — and is attributed to
// the node; the byte addresses are identical to the flat collector's.
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
	if err := rt.env.Put(d.ref, kernel.PutOpts{Snap: true}); err != nil && merr == nil {
		merr = err
	}
	return merr
}

// treeFork dispatches one node's fork batch through its delegate: the
// delegate's replica is refreshed from the master and each listed thread
// forks from it locally, with a local snapshot.
func (rt *RT) treeFork(node int, reqs []forkReq) error {
	d := rt.treeDelegate(rt.concreteNode(node))
	d.box.set(dcmdFork, nil, reqs)
	if err := rt.treeSend(d); err != nil {
		return err
	}
	return rt.treeSync(d)
}

// treeJoin collects the grouped threads through their delegates: every
// node's collection is started first (they proceed concurrently, each on
// its own node's CPUs), then the per-node deltas are committed in
// ascending node order and each node's results passed to sink. The
// error is the first in node-then-thread order.
func (rt *RT) treeJoin(nodes []int, groups map[int][]int, sink func(id int, v uint64)) error {
	// Dispatch in descending node order: the master ends its tour next
	// to node 0, so the ascending commit walk below revisits the nodes
	// without a wasted hop. Dispatch order is invisible to results —
	// commits are what's ordered.
	for i := len(nodes) - 1; i >= 0; i-- {
		d := rt.treeDelegate(nodes[i])
		d.box.set(dcmdJoin, groups[nodes[i]], nil)
		if err := rt.treeSend(d); err != nil {
			return err
		}
	}
	var firstErr error
	for _, nd := range nodes {
		d := rt.treeDelegate(nd)
		if err := rt.treeCommit(d); err != nil && firstErr == nil {
			firstErr = err
		}
		for k, id := range groups[nd] {
			sink(id, d.box.rets[k])
		}
	}
	return firstErr
}

// treeBarrierRound is BarrierRound over the sharded tree. One command
// per node per round: the Put that dispatches it refreshes the
// delegate's replica (the previous round's combined state), the delegate
// resyncs the threads its previous collect left at the barrier, waits
// for all of its threads to stop again, and collects them in thread
// order; the master then commits one delta per node in node order. The
// flat collector's resync within the round is here the deferred resync
// prefix of the next round's command — which also means every mailbox
// write happens directly after a committing rendezvous proved the
// delegate stopped.
func (rt *RT) treeBarrierRound(nodes []int, groups map[int][]int) error {
	// Descending dispatch for the same hop-saving reason as treeJoin.
	for i := len(nodes) - 1; i >= 0; i-- {
		d := rt.treeDelegate(nodes[i])
		d.box.set(dcmdCollect, groups[nodes[i]], nil)
		if err := rt.treeSend(d); err != nil {
			return err
		}
	}
	for _, nd := range nodes {
		if err := rt.treeCommit(rt.treeDelegate(nd)); err != nil {
			return err
		}
	}
	return nil
}
