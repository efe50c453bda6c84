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
// A round is the fork/join runtime's start and collect with a quantum:
// core.RT.Start hands every runnable thread the same Put — copy the
// shared region, refresh the snapshot, arm the instruction limit — and
// core.RT.Collect merges the threads last-writer-wins strictly in thread
// order, each Get blocking until its thread stops, so an early finisher
// commits while stragglers still run. Round zero is the same round with
// the threads' fork registers. What is left here is scheduling policy:
// which threads are runnable, what each stop means, the mutex hand-offs,
// deadlock detection and the round statistics.
//
// Resynchronization costs what changed. A replica table still
// pointer-shared with the master's is current, because whichever side
// writes a shared table copies it first; the kernel's table-aligned copy
// re-shares only the tables whose pointers differ and charges only those,
// and the snapshot refresh likewise. A thread resuming into an unchanged
// region, its own replica unwritten, costs one system call. Per-round
// telemetry (RoundStats, Stats) counts the tables each start's copy found
// stale and current.
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
	// SyncSkipped counts threads whose region copy found nothing stale:
	// every table already pointer-shared with the master's, so the copy
	// re-shared none.
	SyncSkipped int
	// TablesResynced counts the 4 MiB shared-region tables the started
	// threads' region copies re-shared this round: tables the master's
	// commits or the thread's own writes replaced since it last ran.
	// TablesSkipped counts the region tables those copies found already
	// shared (or empty on both sides) and left alone. Each start counts
	// every region table in one of the two.
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
	SyncSkipped    int64 // quanta started with no region table stale
	TablesResynced int64 // shared-region tables re-shared across all starts
	TablesSkipped  int64 // shared-region tables found current across all starts
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
}

// Sched is the master-space scheduler.
type Sched struct {
	rt      *core.RT
	env     *kernel.Env
	quantum int64

	threads  []*threadState
	run      []int // the current round's runnable thread ids, ascending
	mutexes  []*mutexState
	conds    []*condState
	barriers []*barrierState
	stats    Stats

	// onRound is the package's test seam, set by nothing outside
	// _test.go: it receives every completed round's statistics, so the
	// invariance tests can compare schedules round for round.
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
// what puts a resync's region copy on the kernel's table-sharing path.
func New(rt *core.RT, cfg Config) (*Sched, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := cfg.Quantum
	if q == 0 {
		q = DefaultQuantum
	}
	return &Sched{rt: rt, env: rt.Env(), quantum: q}, nil
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
// Round zero forks every thread with the quantum armed; it is otherwise
// a round like any later one. Run(0) runs no round.
func (s *Sched) Run(n int, body func(t *Thread)) error {
	mus := make([]vm.Addr, len(s.mutexes))
	for i, m := range s.mutexes {
		mus[i] = m.addr
	}
	s.threads = make([]*threadState, n)
	for i := range s.threads {
		s.threads[i] = &threadState{id: i}
	}
	entry := func(env *kernel.Env) {
		body(&Thread{ID: int(env.Arg()), env: env, mus: mus})
	}
	for s.alive() {
		if err := s.round(entry); err != nil {
			return err
		}
		entry = nil
	}
	for _, t := range s.threads {
		if t.crash != nil {
			return t.crash
		}
	}
	return nil
}

// alive reports whether any thread has not exited.
func (s *Sched) alive() bool {
	for _, t := range s.threads {
		if !t.done {
			return true
		}
	}
	return false
}

// round runs one scheduling quantum over the runnable threads with the
// runtime's start and collect (core.RT.Start, core.RT.Collect): start
// every runnable thread under the quantum, forking it first if entry is
// non-nil, then merge their commits last-writer-wins strictly in thread
// order, servicing each thread's stop as it is collected.
func (s *Sched) round(entry kernel.Prog) error {
	rs := RoundStats{Round: s.stats.Rounds + 1, Quantum: s.quantum}
	s.run = s.run[:0]
	for _, t := range s.threads {
		switch {
		case t.done:
		case t.blocked:
			rs.Blocked++
		default:
			s.run = append(s.run, t.id)
		}
	}
	if len(s.run) == 0 {
		return ErrDeadlock
	}
	_, size := s.rt.SharedRange()
	tables := int(size / vm.TableSpan)
	p := core.Policy{Limit: s.quantum, LWW: true, Started: func(copied vm.CopyStats) {
		rs.Ran++
		rs.TablesResynced += copied.TablesShared
		rs.TablesSkipped += tables - copied.TablesShared
		if copied.TablesShared == 0 {
			rs.SyncSkipped++
		}
	}}
	if err := s.rt.Start(s.run, entry, p); err != nil {
		return err
	}
	if err := s.rt.Collect(s.run, p, func(id int, info kernel.ChildInfo, err error) error {
		if err != nil {
			return err
		}
		rs.Merge.Add(info.Merge)
		return s.handleStop(id, info)
	}); err != nil {
		return err
	}
	s.handoffs()
	s.finishRound(rs)
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
		// Hand over locked: the requester was acquiring it. The write
		// copies the table the master shared with every replica, so
		// each thread's next resync re-shares it — in particular the
		// woken requester cannot miss its own ownership.
		s.env.WriteU64(m.addr+offFlag, 1)
		s.env.WriteU64(m.addr+offOwner, uint64(next))
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
