// Package dsched implements Determinator's deterministic scheduler for
// legacy, nondeterministic thread APIs (§4.5 of the paper): the pthreads
// compatibility path.
//
// The process's master space never runs application code. It creates one
// child space per application thread and quantizes execution: every
// round, each runnable thread receives a fresh snapshot of shared memory
// and an instruction limit of one quantum, runs concurrently with its
// peers, and is then collected in fixed thread order, its shared-memory
// writes merged back with deterministic last-writer-wins commit order.
// Writes therefore propagate only at quantum boundaries — the weak
// consistency model of DMP-B, totally ordering only synchronization.
//
// The round engine keeps that model while avoiding its naive cost.
// Collection applies the merges strictly in thread order, each Get
// blocking until its thread stops, so an early finisher commits while
// stragglers still run. Resynchronization is epoch-skipped: the master
// tracks a commit epoch for its shared region and each thread the epoch
// it last synchronized to, and a thread resuming into an unchanged region
// — no commits, no hand-off writes, and its own replica provably clean —
// is restarted with a bare Put{Start,Limit}: no Copy, no fresh snapshot.
// The skip is result-invariant, including virtual times: it fires only
// when the kernel's (incremental) Copy and Snap would charge nothing and
// change nothing. Per-round telemetry
// (RoundStats, Stats) makes the savings observable.
//
// Synchronization primitives trap to the master instead of spinning.
// Each mutex is owned by some thread; the owner locks and unlocks it
// without scheduler interaction (writing a flag in its private replica,
// merged like any other write), while any other thread requests
// ownership, and the scheduler steals the mutex from its owner at the
// owner's next quantum boundary if it is unlocked — the protocol of
// §4.5. The owner's identity lives in shared memory too, written only by
// the master, so every thread's replica shows who owned each mutex as of
// its own quantum start; staleness is impossible because ownership only
// changes at boundaries, while threads are stopped.
//
// Condition variables and barriers queue threads in the master, FIFO in
// thread order, so wake-ups are deterministic. The result is repeatable
// execution for unmodified lock-based code, at the cost the paper
// measures: a fixed overhead that shrinks as the quantum grows, and a
// programming model that remains racy — only reproducibly so.
package dsched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Scheduler service opcodes, passed in the Ret register.
const (
	opLockRequest   = iota + 1 // acquire ownership of a mutex
	opCondWait                 // atomically release mutex and wait on condvar
	opCondSignal               // wake one waiter
	opCondBroadcast            // wake all waiters
	opBarrier                  // wait at barrier
	opYield                    // voluntarily end the quantum
)

func encodeOp(op, arg int) uint64 { return uint64(op)<<32 | uint64(uint32(arg)) }
func decodeOp(v uint64) (op, arg int) {
	return int(v >> 32), int(uint32(v))
}

// Mutex names a scheduler-managed mutex. Create all mutexes before
// starting threads.
type Mutex int

// Cond names a condition variable.
type Cond int

// Barrier names a barrier.
type Barrier int

// Per-mutex shared-memory layout: two u64 words.
const (
	offFlag  = 0 // 1 = locked; written by the owning thread (and by the master at handoff)
	offOwner = 8 // owning thread id; written only by the master
)

// Config tunes the scheduler.
type Config struct {
	// Quantum is the instruction limit per scheduling round. The paper's
	// evaluation uses 10 million instructions.
	Quantum int64
}

// DefaultQuantum matches the paper's choice.
const DefaultQuantum = 10_000_000

// RoundStats describes one scheduling round.
type RoundStats struct {
	Round   int64 // 1-based round number
	Quantum int64 // instruction limit each runnable thread received
	Ran     int   // threads that ran a quantum this round
	Blocked int   // threads that sat blocked on a sync object
	// SyncSkipped counts threads resumed with a bare Put{Start,Limit}:
	// the epoch proof showed both the shared-region copy and the
	// re-snapshot would be no-ops, so neither was issued.
	SyncSkipped int
	// TablesResynced counts the 4 MiB shared-region tables re-copied
	// into resuming threads this round; TablesSkipped counts the tables
	// the per-table epoch proof showed current, so their copies were
	// never issued. A full resync (the thread's replica was dirty) counts
	// every region table as resynced.
	TablesResynced int
	TablesSkipped  int
	// Merge totals the reconciliation work of this round's collections.
	Merge vm.MergeStats
	// VT is the master's virtual clock after the round.
	VT int64
}

// Stats accumulates RoundStats over a scheduler's lifetime.
type Stats struct {
	Rounds         int64
	ThreadQuanta   int64 // total quanta executed across all threads
	SyncSkipped    int64 // quanta started without any resynchronization
	TablesResynced int64 // shared-region tables re-copied across all resyncs
	TablesSkipped  int64 // shared-region tables proven current and not copied
	Merge          vm.MergeStats
}

type mutexState struct {
	addr    vm.Addr
	waiters []int // FIFO ownership queue
}

type condState struct {
	waiters []int // FIFO
	mu      map[int]Mutex
}

type barrierState struct {
	need    int
	waiting []int
}

type threadState struct {
	id      int
	blocked bool
	done    bool
	crash   error
	// syncEpoch is the master commit epoch the thread's replica was last
	// synchronized to; dirty records that the thread has provably-unknown
	// (or known) divergence from its own snapshot since then. Together
	// they decide epoch-skipped resync: a thread with syncEpoch equal to
	// the master's commit epoch and a clean replica would receive a
	// no-op Copy (every table still pointer-shared) and a no-op Snap
	// (snapshot still exact), so the engine skips both.
	syncEpoch uint64
	dirty     bool
}

// Sched is the master-space scheduler.
type Sched struct {
	rt      *core.RT
	env     *kernel.Env
	quantum int64

	threads  []*threadState
	mutexes  []*mutexState
	conds    []*condState
	barriers []*barrierState
	stats    Stats

	// commitEpoch advances whenever the master's copy of the shared
	// region changes: a collection merged bytes or adopted pages, or the
	// master wrote shared memory during a mutex hand-off. Threads record
	// the epoch they last synchronized at; matching epochs prove the
	// master region is byte- and pointer-identical to what the thread
	// already holds.
	commitEpoch uint64
	// tableEpochs refines commitEpoch to level-1 table granularity:
	// tableEpochs[i] is the commit epoch at which region table epochLo+i
	// last changed. A table whose epoch is <= a thread's syncEpoch is
	// byte- and pointer-identical between master and that thread's
	// replica (the merge's touched-table bits are deterministic and any
	// divergence marks the table), so a resync need only copy the tables
	// whose epoch passed the thread's.
	tableEpochs []uint64
	// epochLo is the level-1 index of the shared region's first table.
	epochLo int

	// noSkip and onRound are the package's test seams, set by nothing
	// outside _test.go. noSkip forces the full resync every round, so the
	// invariance tests can show that skipping changes no result and no
	// virtual time; onRound receives every completed round's statistics,
	// so they can compare schedules round for round.
	noSkip  bool
	onRound func(RoundStats)
}

// Thread is the handle application thread code receives. Synchronization
// methods interact with the scheduler; everything else is ordinary
// memory access on the thread's private replica via Env.
type Thread struct {
	ID  int
	env *kernel.Env
	mus []vm.Addr // mutex shared-memory addresses, by Mutex index
}

// Env exposes the thread's kernel environment.
func (t *Thread) Env() *kernel.Env { return t.env }

// New creates a scheduler in the master space managed by rt. A zero
// Quantum selects DefaultQuantum; an invalid cfg is a *BadConfigError.
//
// Every core.RT's shared region is a whole number of level-1 tables
// (core.New rounds to it, core.Attach rejects anything else), which is
// what lets a partial resync be a list of table-aligned copies.
func New(rt *core.RT, cfg Config) (*Sched, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := cfg.Quantum
	if q == 0 {
		q = DefaultQuantum
	}
	base, size := rt.SharedRange()
	return &Sched{
		rt: rt, env: rt.Env(), quantum: q, commitEpoch: 1,
		tableEpochs: make([]uint64, size/vm.TableSpan),
		epochLo:     vm.TableOf(base),
	}, nil
}

// NewMutex creates a mutex, initially unlocked and owned by thread 0.
func (s *Sched) NewMutex() Mutex {
	addr := s.rt.Alloc(16, 8)
	s.env.WriteU64(addr+offFlag, 0)
	s.env.WriteU64(addr+offOwner, 0)
	s.mutexes = append(s.mutexes, &mutexState{addr: addr})
	return Mutex(len(s.mutexes) - 1)
}

// NewCond creates a condition variable.
func (s *Sched) NewCond() Cond {
	s.conds = append(s.conds, &condState{mu: make(map[int]Mutex)})
	return Cond(len(s.conds) - 1)
}

// NewBarrier creates a barrier for n threads.
func (s *Sched) NewBarrier(n int) Barrier {
	s.barriers = append(s.barriers, &barrierState{need: n})
	return Barrier(len(s.barriers) - 1)
}

// Stats reports the scheduler's accumulated round statistics.
func (s *Sched) Stats() Stats { return s.stats }

// ErrDeadlock is returned when every live thread is blocked on a
// synchronization object no runnable thread can release.
var ErrDeadlock = fmt.Errorf("dsched: all threads blocked (deadlock)")

// Run executes n application threads under deterministic scheduling and
// returns when all have exited (or one crashes, or the set deadlocks).
func (s *Sched) Run(n int, body func(t *Thread)) error {
	mus := make([]vm.Addr, len(s.mutexes))
	for i, m := range s.mutexes {
		mus[i] = m.addr
	}
	base, size := s.rt.SharedRange()
	s.threads = make([]*threadState, n)
	// Round zero: fork every thread with the quantum limit armed, then
	// collect, like any later round. The first resync is always full.
	rs := RoundStats{Round: s.stats.Rounds + 1, Quantum: s.quantum, Ran: n,
		TablesResynced: n * len(s.tableEpochs)}
	started := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		s.threads[i] = &threadState{id: i, syncEpoch: s.commitEpoch}
		entry := func(env *kernel.Env) {
			body(&Thread{ID: i, env: env, mus: mus})
		}
		if err := s.env.Put(s.ref(i), kernel.PutOpts{
			Regs:  &kernel.Regs{Entry: entry, Arg: uint64(i)},
			Copy:  &kernel.CopyRange{Src: base, Dst: base, Size: size},
			Snap:  true,
			Start: true,
			Limit: s.quantum,
		}); err != nil {
			return err
		}
		started[i] = true
	}
	if err := s.collect(started, &rs); err != nil {
		return err
	}
	s.handoffs()
	s.finishRound(rs)
	for {
		alive := false
		for _, t := range s.threads {
			if !t.done {
				alive = true
				break
			}
		}
		if !alive {
			break
		}
		if err := s.round(); err != nil {
			return err
		}
	}
	for _, t := range s.threads {
		if t.crash != nil {
			return t.crash
		}
	}
	return nil
}

func (s *Sched) ref(id int) uint64 { return uint64(id + 1) }

// bumpTouched advances the commit epoch for a merge commit, stamping the
// region tables the merge's deterministic touched bits say it changed.
func (s *Sched) bumpTouched(tb *vm.TableBits) {
	s.commitEpoch++
	for i := range s.tableEpochs {
		if tb.Test(s.epochLo + i) {
			s.tableEpochs[i] = s.commitEpoch
		}
	}
}

// bumpAddrs advances the commit epoch for a master write to the given
// shared-memory addresses (mutex hand-off words), stamping the tables
// containing them.
func (s *Sched) bumpAddrs(addrs ...vm.Addr) {
	s.commitEpoch++
	for _, a := range addrs {
		if i := vm.TableOf(a) - s.epochLo; i >= 0 && i < len(s.tableEpochs) {
			s.tableEpochs[i] = s.commitEpoch
		}
	}
}

// get collects thread id: rendezvous plus shared-region merge with
// deterministic last-writer-wins commit.
func (s *Sched) get(id int) (kernel.ChildInfo, error) {
	base, size := s.rt.SharedRange()
	return s.env.Get(s.ref(id), kernel.GetOpts{
		Regs:       true,
		Merge:      true,
		MergeRange: &kernel.Range{Addr: base, Size: size},
		MergeLWW:   true,
	})
}

// round runs one scheduling quantum: resynchronize and start every
// runnable thread (skipping the resync when the epoch proof makes it a
// no-op), wait for all of them concurrently, then apply their merge
// commits strictly in thread order.
func (s *Sched) round() error {
	rs := RoundStats{Round: s.stats.Rounds + 1}
	base, size := s.rt.SharedRange()
	runnable := 0
	for _, t := range s.threads {
		switch {
		case t.done:
		case t.blocked:
			rs.Blocked++
		default:
			runnable++
		}
	}
	if runnable == 0 {
		return ErrDeadlock
	}
	rs.Quantum = s.quantum
	started := make([]bool, len(s.threads))
	for _, t := range s.threads {
		if t.done || t.blocked {
			continue
		}
		opts := kernel.PutOpts{Start: true, Limit: s.quantum}
		regionTables := len(s.tableEpochs)
		if t.dirty || s.noSkip {
			// The replica diverged from its own snapshot: re-copy the
			// whole shared region and refresh the snapshot. Both
			// operations do — and charge — work only proportional to the
			// tables that actually diverged.
			opts.Copy = &kernel.CopyRange{Src: base, Dst: base, Size: size}
			opts.Snap = true
			rs.TablesResynced += regionTables
			t.syncEpoch = s.commitEpoch
			t.dirty = false
		} else if stale := s.staleRuns(t.syncEpoch, base); len(stale.runs) == 0 {
			// In sync: the thread's replica, and its snapshot, are still
			// byte- and pointer-identical to the master region, so Copy
			// and Snap would be no-ops. Resume bare.
			rs.SyncSkipped++
			rs.TablesSkipped += regionTables
			t.syncEpoch = s.commitEpoch
		} else {
			// Some tables committed past the thread's sync epoch; every
			// other table is byte- and pointer-identical on both sides, so
			// copying only the stale ones is exactly the whole-region copy
			// — same bytes, and same virtual time, because the kernel's
			// table-aligned copy fast path charges only pointer-different
			// tables and the current ones are already shared.
			if stale.count == regionTables {
				opts.Copy = &kernel.CopyRange{Src: base, Dst: base, Size: size}
			} else {
				opts.Copies = stale.runs
			}
			opts.Snap = true
			rs.TablesResynced += stale.count
			rs.TablesSkipped += regionTables - stale.count
			t.syncEpoch = s.commitEpoch
			t.dirty = false
		}
		if err := s.env.Put(s.ref(t.id), opts); err != nil {
			return err
		}
		started[t.id] = true
		rs.Ran++
	}
	if err := s.collect(started, &rs); err != nil {
		return err
	}
	s.handoffs()
	s.finishRound(rs)
	return nil
}

// staleSet describes the region tables whose epoch passed a thread's
// sync epoch, coalesced into maximal table-aligned copy ranges.
type staleSet struct {
	runs  []kernel.CopyRange
	count int
}

// staleRuns computes the stale set for a thread last synchronized at
// syncEpoch.
func (s *Sched) staleRuns(syncEpoch uint64, base vm.Addr) staleSet {
	var out staleSet
	lo := -1
	flush := func(hi int) {
		if lo < 0 {
			return
		}
		addr := base + vm.Addr(uint64(lo)*vm.TableSpan)
		out.runs = append(out.runs, kernel.CopyRange{
			Src: addr, Dst: addr, Size: uint64(hi-lo) * vm.TableSpan,
		})
		lo = -1
	}
	for i, e := range s.tableEpochs {
		if e > syncEpoch {
			if lo < 0 {
				lo = i
			}
			out.count++
			continue
		}
		flush(i)
	}
	flush(len(s.tableEpochs))
	return out
}

// collect gathers every started thread: each Get waits for its thread to
// stop, and the merge commits are applied strictly in thread-id order —
// the order, not the waiting, is what the deterministic result depends on.
func (s *Sched) collect(started []bool, rs *RoundStats) error {
	for _, t := range s.threads {
		if !started[t.id] {
			continue
		}
		info, err := s.get(t.id)
		if err != nil {
			return err
		}
		if info.MergeTouched.Any() {
			// The master's region changed: every thread synchronized to
			// an earlier epoch must resync the touched tables before it
			// next runs.
			s.bumpTouched(&info.MergeTouched)
		}
		t.dirty = !info.MemClean
		rs.Merge.Add(info.Merge)
		if err := s.handleStop(t.id, info); err != nil {
			return err
		}
	}
	return nil
}

// handoffs runs the deferred mutex hand-offs: steal unlocked mutexes
// from their owners for queued requesters, in mutex order.
func (s *Sched) handoffs() {
	for _, m := range s.mutexes {
		s.handoff(m)
	}
}

// finishRound closes out one round's accounting.
func (s *Sched) finishRound(rs RoundStats) {
	rs.VT = s.env.VT()
	s.stats.Rounds++
	s.stats.ThreadQuanta += int64(rs.Ran)
	s.stats.SyncSkipped += int64(rs.SyncSkipped)
	s.stats.TablesResynced += int64(rs.TablesResynced)
	s.stats.TablesSkipped += int64(rs.TablesSkipped)
	s.stats.Merge.Add(rs.Merge)
	if s.onRound != nil {
		s.onRound(rs)
	}
}

// handleStop processes one thread's stop reason after its merge.
func (s *Sched) handleStop(id int, info kernel.ChildInfo) error {
	t := s.threads[id]
	switch info.Status {
	case kernel.StatusHalted:
		t.done = true
		return nil
	case kernel.StatusInsnLimit:
		return nil // quantum expired; runnable next round
	case kernel.StatusRet:
		op, arg := decodeOp(info.Regs.Ret)
		return s.service(id, op, arg)
	case kernel.StatusFault, kernel.StatusExcept:
		t.done = true
		t.crash = fmt.Errorf("dsched: thread %d crashed (%v): %w", id, info.Status, info.Err)
		return nil
	default:
		return fmt.Errorf("dsched: thread %d in unexpected state %v", id, info.Status)
	}
}

// service handles an explicit scheduler request from thread id.
func (s *Sched) service(id, op, arg int) error {
	t := s.threads[id]
	switch op {
	case opYield:
		return nil
	case opLockRequest:
		m := s.mutexes[arg]
		m.waiters = append(m.waiters, id)
		t.blocked = true
		return nil
	case opCondWait:
		cv := s.conds[arg&0xffff]
		mu := Mutex(arg >> 16)
		cv.waiters = append(cv.waiters, id)
		cv.mu[id] = mu
		t.blocked = true
		return nil
	case opCondSignal, opCondBroadcast:
		cv := s.conds[arg]
		wake := 1
		if op == opCondBroadcast {
			wake = len(cv.waiters)
		}
		for wake > 0 && len(cv.waiters) > 0 {
			w := cv.waiters[0]
			cv.waiters = cv.waiters[1:]
			wake--
			// A woken thread must reacquire its mutex before returning
			// from wait: it joins the ownership queue.
			mu := cv.mu[w]
			delete(cv.mu, w)
			s.mutexes[mu].waiters = append(s.mutexes[mu].waiters, w)
		}
		return nil
	case opBarrier:
		b := s.barriers[arg]
		b.waiting = append(b.waiting, id)
		t.blocked = true
		if len(b.waiting) >= b.need {
			for _, w := range b.waiting {
				s.threads[w].blocked = false
			}
			b.waiting = nil
		}
		return nil
	default:
		return fmt.Errorf("dsched: thread %d issued unknown op %d", id, op)
	}
}

// handoff transfers an unlocked mutex to the head of its waiter queue.
// The master's replica holds the authoritative lock flag (the owner's
// writes were merged when the owner was last collected); the owner word
// is written only here, while every thread is stopped, so no thread can
// ever observe a stale owner.
func (s *Sched) handoff(m *mutexState) {
	for len(m.waiters) > 0 {
		owner := int(s.env.ReadU64(m.addr + offOwner))
		if !s.threads[owner].done && s.env.ReadU64(m.addr+offFlag) != 0 {
			return // still locked: steal at a later boundary
		}
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		// Hand over locked: the requester was acquiring it. The master
		// just changed the shared region, so every thread's sync epoch
		// is stale — in particular the woken requester resyncs before it
		// runs and cannot miss its own ownership.
		s.env.WriteU64(m.addr+offFlag, 1)
		s.env.WriteU64(m.addr+offOwner, uint64(next))
		s.bumpAddrs(m.addr+offFlag, m.addr+offOwner)
		s.threads[next].blocked = false
	}
}

// --- thread-side API ----------------------------------------------------------

// Lock acquires m. If the calling thread owns m it locks it with two
// memory accesses and no scheduler interaction; otherwise it traps to the
// master to request ownership and resumes once the mutex has been stolen
// for it.
func (t *Thread) Lock(m Mutex) {
	addr := t.mus[m]
	t.env.NoPreempt(func() {
		if t.env.ReadU64(addr+offOwner) == uint64(t.ID) {
			t.env.WriteU64(addr+offFlag, 1)
			return
		}
		t.env.SetRet(encodeOp(opLockRequest, int(m)))
		t.env.Ret()
		// Resumed: the master made us owner and set the flag for us.
	})
}

// Unlock releases m. The caller must own it (guaranteed if it called
// Lock); the release is a plain private write, merged at the next
// boundary, where the master may steal the mutex for a waiter.
func (t *Thread) Unlock(m Mutex) {
	addr := t.mus[m]
	t.env.NoPreempt(func() {
		if t.env.ReadU64(addr+offOwner) != uint64(t.ID) {
			panic(fmt.Sprintf("dsched: thread %d unlocking mutex %d it does not own", t.ID, m))
		}
		t.env.WriteU64(addr+offFlag, 0)
	})
}

// Wait atomically releases m and blocks on cv; on wake-up it has
// reacquired m.
func (t *Thread) Wait(cv Cond, m Mutex) {
	addr := t.mus[m]
	t.env.NoPreempt(func() {
		if t.env.ReadU64(addr+offOwner) != uint64(t.ID) {
			panic(fmt.Sprintf("dsched: thread %d waiting with mutex %d it does not own", t.ID, m))
		}
		t.env.WriteU64(addr+offFlag, 0)
		t.env.SetRet(encodeOp(opCondWait, int(cv)|int(m)<<16))
		t.env.Ret()
	})
}

// Signal wakes one thread waiting on cv (deterministically, the one that
// has waited longest, ties in thread order).
func (t *Thread) Signal(cv Cond) {
	t.env.NoPreempt(func() {
		t.env.SetRet(encodeOp(opCondSignal, int(cv)))
		t.env.Ret()
	})
}

// Broadcast wakes all threads waiting on cv.
func (t *Thread) Broadcast(cv Cond) {
	t.env.NoPreempt(func() {
		t.env.SetRet(encodeOp(opCondBroadcast, int(cv)))
		t.env.Ret()
	})
}

// BarrierWait blocks until all participants arrive.
func (t *Thread) BarrierWait(b Barrier) {
	t.env.NoPreempt(func() {
		t.env.SetRet(encodeOp(opBarrier, int(b)))
		t.env.Ret()
	})
}

// Yield ends the thread's quantum early.
func (t *Thread) Yield() {
	t.env.NoPreempt(func() {
		t.env.SetRet(encodeOp(opYield, 0))
		t.env.Ret()
	})
}
