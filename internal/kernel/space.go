package kernel

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/vm"
)

// Prog is the code image of a space: the analogue of the program text and
// entry point (EIP) in the real kernel. It receives the space's Env, its
// only handle to memory and the syscall API.
type Prog func(*Env)

// Regs is a space's register state. Entry stands in for the instruction
// pointer / code image; Arg and Ret are small argument/result words (the
// EAX/EDX analogues) that Put and Get can copy between parent and child.
type Regs struct {
	Entry Prog
	Arg   uint64
	Ret   uint64
}

// Status reports why a space last stopped.
type Status int

const (
	// StatusNever marks a space that has not run yet.
	StatusNever Status = iota
	// StatusRet marks a voluntary Ret; the space can be resumed.
	StatusRet
	// StatusInsnLimit marks preemption by the instruction limit; the space
	// can be resumed.
	StatusInsnLimit
	// StatusHalted marks a program whose entry function returned.
	StatusHalted
	// StatusFault marks a memory access fault (the analogue of a page
	// fault or illegal access trap).
	StatusFault
	// StatusExcept marks a runtime exception (panic) in the space's code.
	StatusExcept
)

func (s Status) String() string {
	switch s {
	case StatusNever:
		return "never-started"
	case StatusRet:
		return "ret"
	case StatusInsnLimit:
		return "insn-limit"
	case StatusHalted:
		return "halted"
	case StatusFault:
		return "fault"
	case StatusExcept:
		return "exception"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Resumable reports whether a stopped space may be restarted without
// loading fresh registers.
func (s Status) Resumable() bool { return s == StatusRet || s == StatusInsnLimit }

type execState int

const (
	stateStopped execState = iota // no user code executing; parent may operate
	stateRunning                  // goroutine executing user code
)

// abortSignal is panicked into parked goroutines at shutdown or when
// the parent overwrites a parked space's registers.
type abortSignal struct{}

// Space is one node of the kernel's space hierarchy (§3.1): register state
// for a single control flow plus a private virtual address space. A space
// interacts only with its immediate parent and children.
type Space struct {
	m      *Machine
	parent *Space
	ref    uint64 // this space's number in its parent's child namespace
	home   *node  // node the space was created on

	// Guarded by mu: execution state machine.
	mu      sync.Mutex
	cond    *sync.Cond
	state   execState
	parked  bool // a goroutine exists, parked inside park()
	abort   bool // parked goroutine must unwind and exit
	status  Status
	trapErr error

	// The fields below are accessed only by the space's own goroutine, or
	// by the parent while the child is stopped (rendezvous guarantees).
	mem      *vm.Space
	snap     *vm.Space // reference snapshot for Merge, nil if none
	regs     Regs
	children map[uint64]*Space

	// Instruction accounting and virtual time.
	insns      int64 // ticks executed by this space
	limit      int64 // trap when insns reaches this value; 0 = none
	critical   int   // >0 suppresses limit preemption (see Env.NoPreempt)
	vt         int64 // virtual clock
	startVT    int64 // vt when the current segment started
	segBlocked int64 // vt spent blocked in rendezvous during this segment
	accounted  bool  // current stop has been charged to a virtual CPU

	// Migration state. On a multi-node machine caches holds, from the
	// space's birth, the pages resident for it on every node it has run
	// on (§3.3's read-only caches): caches[node.id] is its residency
	// here. A single-node space has nil caches and everything resident.
	node   *node // node the space currently executes on
	caches map[int]*pageSet
	net    NetStats // cross-node traffic this space initiated

	// Per-node virtual CPU pools for the children this space collects
	// (touched only by the collector's goroutine, in program order).
	pools map[int]*vcpuPool
}

// poolFor returns this space's CPU pool for the given node.
func (sp *Space) poolFor(n *node) *vcpuPool {
	if sp.pools == nil {
		sp.pools = make(map[int]*vcpuPool)
	}
	p := sp.pools[n.id]
	if p == nil {
		p = &vcpuPool{free: make([]int64, n.cpus)}
		sp.pools[n.id] = p
	}
	return p
}

func newSpace(m *Machine, parent *Space, ref uint64, home *node, mem *vm.Space) *Space {
	sp := &Space{
		m:      m,
		parent: parent,
		ref:    ref,
		home:   home,
		node:   home,
		mem:    mem,
		status: StatusNever,
	}
	sp.cond = sync.NewCond(&sp.mu)
	return sp
}

// start launches or resumes the space's user code. The caller (the parent,
// during Put, or Machine.Run for the root) must know the space is stopped.
func (sp *Space) start(limit int64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if limit > 0 {
		sp.limit = sp.insns + limit
	} else {
		sp.limit = 0
	}
	sp.accounted = false
	sp.startVT = sp.vt
	sp.segBlocked = 0
	sp.state = stateRunning
	if sp.parked {
		sp.cond.Broadcast() // wake the goroutine parked in park()
		return
	}
	entry := sp.regs.Entry
	sp.m.wg.Add(1)
	go sp.run(entry)
}

// run is the top of a space goroutine: it executes the entry program and
// converts panics into trap statuses, mirroring processor exceptions.
func (sp *Space) run(entry Prog) {
	defer sp.m.wg.Done()
	defer func() {
		r := recover()
		switch t := r.(type) {
		case nil, haltSignal:
			sp.stop(StatusHalted, nil)
		case abortSignal:
			// Shutdown or register overwrite: exit without changing state;
			// the aborter already holds the state machine.
		case *vm.AccessError, *vm.SpanError:
			sp.stop(StatusFault, t.(error))
		default:
			sp.stop(StatusExcept, fmt.Errorf("kernel: exception in space: %v", r))
		}
	}()
	entry(&Env{sp: sp})
}

// stop marks the space permanently stopped (halt, fault or exception);
// the goroutine is about to exit.
func (sp *Space) stop(st Status, err error) {
	sp.mu.Lock()
	sp.status = st
	sp.trapErr = err
	sp.parked = false
	sp.state = stateStopped
	sp.cond.Broadcast()
	sp.mu.Unlock()
}

// park suspends the calling space goroutine (Ret or instruction-limit
// trap) until the parent restarts it. It panics with abortSignal if the
// parent discards the parked execution.
func (sp *Space) park(st Status) {
	sp.mu.Lock()
	sp.status = st
	sp.trapErr = nil
	sp.parked = true
	sp.state = stateStopped
	sp.cond.Broadcast()
	for sp.state != stateRunning {
		sp.cond.Wait()
	}
	sp.parked = false
	aborted := sp.abort
	sp.abort = false
	if aborted {
		// This goroutine will never run user code again; hand the state
		// machine back to the aborter before unwinding.
		sp.state = stateStopped
		sp.cond.Broadcast()
		sp.mu.Unlock()
		panic(abortSignal{})
	}
	sp.mu.Unlock()
}

// waitStopped blocks until the space's user code stops (Ret, trap, halt).
// It implements the rendezvous half of Put/Get.
func (sp *Space) waitStopped() {
	sp.mu.Lock()
	for sp.state == stateRunning {
		sp.cond.Wait()
	}
	sp.mu.Unlock()
}

// discardExecution aborts a parked goroutine so the space can be restarted
// at fresh registers. The space must be stopped.
func (sp *Space) discardExecution() {
	sp.mu.Lock()
	if sp.parked {
		sp.abort = true
		sp.state = stateRunning // release the goroutine parked in park()
		sp.cond.Broadcast()
		for sp.parked {
			sp.cond.Wait() // park() resets parked and state before unwinding
		}
	}
	sp.mu.Unlock()
}

// abortTree recursively shuts down this space and all descendants: waits
// for running code to stop, then discards parked goroutines.
func (sp *Space) abortTree() {
	sp.waitStopped()
	sp.discardExecution()
	for _, c := range sp.children {
		c.abortTree()
	}
}

// free releases the memory and snapshot of sp and of every descendant,
// children in ascending ref order.
func (sp *Space) free() {
	sp.mem.Free()
	if sp.snap != nil {
		sp.snap.Free()
	}
	for _, ref := range slices.Sorted(maps.Keys(sp.children)) {
		sp.children[ref].free()
	}
}

// collect finalizes virtual-time accounting for a child that has stopped:
// the child's execution segment is scheduled onto its node's virtual CPU
// pool, and the child's clock shifts to the segment's completion time.
// Called by the parent during rendezvous; idempotent per segment.
func (sp *Space) collect(child *Space) {
	if child.accounted {
		return
	}
	child.accounted = true
	if child.status == StatusNever {
		return
	}
	// A space occupies a CPU only while it actually executes: time it
	// spent blocked in rendezvous with its own children (who were
	// scheduled on CPUs themselves) is not occupancy, or nested fork
	// trees would charge every ancestor for the leaves' work.
	dur := child.vt - child.startVT - child.segBlocked
	if dur < 0 {
		dur = 0
	}
	child.vt = sp.poolFor(child.node).schedule(child.startVT+child.segBlocked, dur)
}

// chargeVT advances the space's virtual clock.
func (sp *Space) chargeVT(c int64) { sp.vt += c }

// chargeCopy charges copy-on-write work — a Put's or Get's copies, a
// snapshot, a subtree clone — at PageCopy per table or page shared or
// zeroed.
func (sp *Space) chargeCopy(st vm.CopyStats) {
	sp.chargeVT(int64(st.TablesShared+st.PagesShared+st.PagesZeroed) * sp.m.cost.PageCopy)
}

// ship charges one cross-node request that moves a run of pages: the
// request's round trip plus each page's transfer, counted in NetStats.
func (sp *Space) ship(pages int) {
	cost := sp.m.cost
	sp.chargeVT(cost.BatchMsg + int64(pages)*cost.PageTransfer + msgExtra(cost))
	sp.net.Msgs++
	sp.net.Pages += int64(pages)
}

// shipper batches the pages a space moves across the wire into requests:
// add extends the pending run while the pages are contiguous and the run
// is under CostModel.BatchPages (a cap of 0 or 1 is one page per
// request), and flush ships the run as one request. Demand paging and a
// cross-node merge's delta both ship through it, so a page costs the
// same whichever moved it.
type shipper struct {
	sp   *Space
	next vm.Addr // the page after the pending run
	run  int     // pages in the pending run
}

func (w *shipper) add(p vm.Addr) {
	if w.run > 0 && (p != w.next || w.run >= w.sp.m.cost.BatchPages) {
		w.flush()
	}
	w.run++
	w.next = p + vm.PageSize
}

func (w *shipper) flush() {
	if w.run > 0 {
		w.sp.ship(w.run)
		w.run = 0
	}
}

// migrate moves the calling space to the target node, charging the
// cross-node protocol costs. What the space holds on the node it leaves
// stays cached there (§3.3) — pages written elsewhere are removed from
// every cache at write time, so a cache only ever holds clean pages — and
// a node it has not run on yet starts with nothing.
func (sp *Space) migrate(target *node) {
	if sp.node == target {
		return
	}
	cost := sp.m.cost
	sp.chargeVT(cost.MigrateMsg + msgExtra(cost))
	sp.net.Msgs++
	sp.node = target
	if sp.caches[target.id] == nil {
		sp.caches[target.id] = newPageSet(false)
	}
}

// residentHere gives a space born with nothing to inherit — the root, a
// clone — every page it holds resident on its node, on a multi-node
// machine.
func (sp *Space) residentHere() {
	if len(sp.m.nodes) > 1 {
		sp.caches = map[int]*pageSet{sp.node.id: newPageSet(true)}
	}
}

func msgExtra(c CostModel) int64 {
	if c.TCPLike {
		return c.TCPExtra
	}
	return 0
}

// touchPages charges demand-paging costs for the page-aligned span
// [addr, addr+size) and maintains the read-only cache: reads populate the
// current node's cache; writes invalidate every other node's cached copy.
//
// Consecutive non-resident pages of one access are fetched as batched
// runs when the cost model allows (CostModel.BatchPages): one request
// round trip moves up to BatchPages pages, so a bulk read of a remote
// span pays per-run rather than per-page protocol overhead. With
// batching disabled every page is its own request, the original
// per-page protocol, at exactly the original cost. A space with nil
// caches (a single node: everything resident) has nothing to charge, and
// Env.access does not call it.
func (sp *Space) touchPages(addr vm.Addr, size int, write bool) {
	if size <= 0 {
		return
	}
	here := sp.caches[sp.node.id]
	wire := shipper{sp: sp}
	first := addr &^ (vm.PageSize - 1)
	last := (addr + vm.Addr(size) - 1) &^ (vm.PageSize - 1)
	for p := first; ; p += vm.PageSize {
		if !here.has(p) {
			wire.add(p)
			here.add(p)
		}
		if write {
			for id, c := range sp.caches {
				if id != sp.node.id {
					c.remove(p)
				}
			}
		}
		if p == last {
			break
		}
	}
	wire.flush()
}

// inheritResidency initializes a child's residency on its node from its
// parent at fork time: COW-shared pages are exactly as resident for the
// child as they were for the parent.
func (sp *Space) inheritResidency(child *Space) {
	if sp.caches == nil {
		return
	}
	if child.caches == nil {
		child.caches = make(map[int]*pageSet)
	}
	if sp.node == child.node {
		child.caches[child.node.id] = sp.caches[sp.node.id].clone()
	} else {
		child.caches[child.node.id] = newPageSet(false)
	}
}
