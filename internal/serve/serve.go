// Package serve is the deterministic session-serving fabric: a
// long-lived server multiplexing many concurrent repro.Sessions for
// many tenants over a bounded worker pool.
//
// The design leans entirely on the library's determinism guarantees:
//
//   - Timeslicing: sessions execute in phase-bounded slices
//     (Session.Step) and yield their worker at quiescence points, so a
//     handful of workers serve any number of open sessions. A resident
//     session is a live machine whose root program is parked at a
//     phase barrier: a slice costs the program's phases plus one
//     handoff, with nothing restored, captured or hashed.
//   - Eviction: over the resident cap, resting sessions are captured,
//     suspended into a shared content-addressed store and torn down;
//     they are rebuilt transparently on their next slice — idle
//     sessions cost store bytes, not memory or goroutines. The save
//     runs outside the dispatch lock, like a slice: it delays its
//     victim's next request and nobody else's.
//   - Retry and failover are free: a slice that dies is re-run by
//     deterministic re-execution from the session's anchor, bit-identical
//     to the attempt a dead worker made, which the server asserts on
//     every failover (Metrics.BitEqOK) rather than assumes.
//
// Scheduling policy (admission, FIFO-per-tenant queueing, eviction
// order) affects only latency and availability, never results — which
// is why this package must not read the wall clock (detlint enforces
// it); wall-budget accounting uses the injected Config.Clock, and only
// to refuse work, never to change it.
package serve

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro"
)

// zeroResult is the empty result failed requests report.
var zeroResult = repro.RunResult{}

// ProgramMaker builds one tenant program instance from a request
// argument. Makers are registered by name (Register) and must be
// deterministic: the program's result may depend only on arg.
type ProgramMaker func(arg uint64) repro.Program

// ConfigError reports an invalid server configuration value.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("serve: config %s: %s", e.Field, e.Reason) }

// ErrClosed reports a request issued to a shut-down server.
type shutdownError struct{}

func (shutdownError) Error() string { return "serve: server is shut down" }

// ErrClosed is returned by requests issued to (or stranded in) a
// shut-down server.
var ErrClosed error = shutdownError{}

// Config configures a Server.
type Config struct {
	// Store is the shared content-addressed store evicted checkpoints
	// land in. Required. All tenants share it: identical chunks dedupe
	// across sessions, and GC keeps what every open session's chain head
	// reaches besides what the store's own refs do.
	Store repro.ChunkStore
	// SessionOpts configures every Session the server builds. The
	// machine shape must stay fixed for the server's lifetime: a resume
	// must match the shape its checkpoint was captured under.
	SessionOpts []repro.SessionOption
	// Workers bounds concurrently executing slices (default 1).
	Workers int
	// Resident bounds sessions holding a live machine; the
	// least-recently-dispatched resting session is evicted to Store
	// when the bound is exceeded (0 = unbounded).
	Resident int
	// Slice is the phase budget per dispatch (default 1): how far a
	// session runs before yielding its worker.
	Slice int
	// DefaultCaps apply to tenants without an explicit SetCaps.
	DefaultCaps TenantCaps
	// Clock supplies monotonic wall time in nanoseconds for wall-budget
	// accounting. This package never reads the wall clock itself (the
	// determinism rules forbid it); cmd/detserved injects time.Now.
	// Nil disables wall accounting.
	Clock func() int64
	// Fault, when non-nil, injects worker deaths (tests, bench).
	Fault FaultHook
}

// Server multiplexes sessions over a worker pool. Create with New,
// stop with Shutdown.
type Server struct {
	cfg      Config
	mu       sync.Mutex
	cond     *sync.Cond
	programs map[string]ProgramMaker
	tenants  map[string]*tenant
	sessions map[SessionID]*session
	queue    *runQueue
	tick     int64 // logical dispatch clock (LRU key; never wall time)
	runningN int   // sessions held outside mu: slices plus evictions in flight
	// evictingN counts the resident sessions among them whose eviction
	// is in flight: still resident, already spoken for.
	evictingN int
	gcWait    bool
	closed    bool
	m         Metrics
	wg        sync.WaitGroup
}

// New validates cfg, starts the worker pool and returns the server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, &ConfigError{Field: "Store", Reason: "a shared checkpoint store is required"}
	}
	if cfg.Workers < 0 {
		return nil, &ConfigError{Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", cfg.Workers)}
	}
	if cfg.Resident < 0 {
		return nil, &ConfigError{Field: "Resident", Reason: fmt.Sprintf("negative resident cap %d", cfg.Resident)}
	}
	if cfg.Slice < 0 {
		return nil, &ConfigError{Field: "Slice", Reason: fmt.Sprintf("negative slice budget %d", cfg.Slice)}
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Slice == 0 {
		cfg.Slice = 1
	}
	s := &Server{
		cfg:      cfg,
		programs: make(map[string]ProgramMaker),
		tenants:  make(map[string]*tenant),
		sessions: make(map[SessionID]*session),
		queue:    newRunQueue(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Register makes a program available to Open under name.
func (s *Server) Register(name string, maker ProgramMaker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.programs[name] = maker
}

// SetCaps installs caps for one tenant (overriding DefaultCaps).
func (s *Server) SetCaps(tenantName string, caps TenantCaps) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenantFor(tenantName).caps = caps
}

// tenantFor returns (creating if needed) the tenant record. Caller
// holds s.mu.
func (s *Server) tenantFor(name string) *tenant {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name, caps: s.cfg.DefaultCaps}
		s.tenants[name] = t
	}
	return t
}

// newSession builds a fresh Session from the server's options.
func (s *Server) newSession() (*repro.Session, error) {
	return repro.NewSession(s.cfg.SessionOpts...)
}

// slice returns the per-dispatch phase budget.
func (s *Server) slice() int { return s.cfg.Slice }

// wrapProgram interposes the fault hook's kill switch on the program's
// phases: an armed kill panics before the phase body runs, which the
// kernel converts into a trap the dispatcher treats as a worker death.
func wrapProgram(c *session, p repro.Program) repro.Program {
	inner := p.Phase
	p.Phase = func(rt *repro.RT, ph int) error {
		if c.takeKill() {
			panic(fmt.Sprintf("serve: worker killed mid-slice (session %s, phase %d)", c.id, ph))
		}
		return inner(rt, ph)
	}
	return p
}

// Open admits a new session for tenantName running the registered
// program with arg, subject to the tenant's caps. The session starts
// Quiescent at phase 0 and costs nothing until its first Run.
func (s *Server) Open(tenantName, program string, arg uint64) (SessionID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	maker, ok := s.programs[program]
	if !ok {
		return "", fmt.Errorf("serve: unknown program %q", program)
	}
	t := s.tenantFor(tenantName)
	if ce := t.admission(); ce != nil {
		s.m.CapRejections++
		return "", ce
	}
	sess, err := s.newSession()
	if err != nil {
		return "", err
	}
	id := SessionID(fmt.Sprintf("%s/%d", tenantName, t.seq))
	c := &session{id: id, tenant: tenantName, program: program, arg: arg, sess: sess}
	c.prog = wrapProgram(c, maker(arg))
	if err := sess.Bind(c.prog); err != nil {
		return "", err
	}
	t.seq++
	t.open++
	s.sessions[id] = c
	s.m.Opened++
	return id, nil
}

// Run drives tenantName's session id to completion and returns its
// result, blocking while the dispatcher slices it against everyone
// else's work. Running a completed session returns the same result
// again — delivery is idempotent because the result is deterministic.
func (s *Server) Run(tenantName string, id SessionID) (repro.RunResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.lookup(tenantName, id)
	if err != nil {
		return zeroResult, err
	}
	c.refused = nil
	switch {
	case c.done, c.queued:
	case c.evicting:
		c.wanted = true // the eviction queues it once the machine is down
	case !c.running: // a running slice queues it again by itself
		s.queue.push(c)
		s.cond.Broadcast()
	}
	for !c.done && c.refused == nil && !s.closed {
		s.cond.Wait()
	}
	switch {
	case c.done:
		return c.result, c.failed
	case c.refused != nil:
		return zeroResult, c.refused
	}
	return zeroResult, ErrClosed
}

// Evict forces tenantName's resting session id out of memory now —
// the administrative form of the automatic resident-cap eviction, and
// like it saved outside the dispatch lock. A session that is mid-slice
// or already being evicted refuses; a failed save leaves the session as
// it rested and returns the store's error.
func (s *Server) Evict(tenantName string, id SessionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.lookup(tenantName, id)
	if err != nil {
		return err
	}
	if c.running {
		return fmt.Errorf("serve: session %s is busy", id)
	}
	// A completed session is not resident — it keeps only its result —
	// but it can still be pushed to the store on request: its final
	// checkpoint is re-derived by deterministic re-execution.
	completed := c.done && c.failed == nil && c.sess.State() != repro.StateSuspended
	if c.pages == 0 && !completed {
		return nil // never started, failed, or already cold
	}
	return s.evict(c)
}

// CloseSession closes tenantName's session id and removes it from the
// registry; its manifest chain stops being a GC root. Busy sessions
// (queued, mid-slice or mid-eviction) refuse to close.
func (s *Server) CloseSession(tenantName string, id SessionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.lookup(tenantName, id)
	if err != nil {
		return err
	}
	if c.running || c.queued {
		return fmt.Errorf("serve: session %s is busy", id)
	}
	_ = c.sess.Close()
	s.setPages(c, 0)
	delete(s.sessions, id)
	s.tenants[c.tenant].open--
	s.m.Closed++
	return nil
}

// GC removes store chunks reachable neither from any open session's
// chain nor from the store's own refs. It quiesces in-flight slices
// and evictions first (a concurrently written checkpoint must not race
// the sweep) — the one place the server calls its store under the lock —
// then collects, holding every open session's newest manifest live;
// chaining keeps each chain's ancestors reachable, so eviction never
// strands a live tenant's history, and the store's refs keep whatever
// else shares it — a detshell chain, a detmake cache — because the
// server's sessions are merely the keys it holds without a ref.
func (s *Server) GC() (repro.CollectStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.runningN > 0 {
		s.gcWait = true
		s.cond.Wait()
	}
	s.gcWait = false
	live := make([]repro.ChunkKey, 0, len(s.sessions))
	for _, c := range s.sessions {
		if m := c.sess.LastManifest(); m != nil {
			live = append(live, m.Key())
		}
	}
	// In key order, so that which dangling head a failed collection
	// names does not depend on the map's iteration.
	slices.SortFunc(live, func(a, b repro.ChunkKey) int { return bytes.Compare(a[:], b[:]) })
	st, err := repro.CollectChunks(s.cfg.Store, live...)
	s.cond.Broadcast()
	return st, err
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}

// Shutdown stops the worker pool and closes every open session, tearing
// their live machines down: when it returns no goroutine of the server
// or of any session's machine remains. In-flight slices finish first;
// stranded Run calls return ErrClosed. Open sessions are not suspended —
// call Evict first if their state must survive the process.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	for s.runningN > 0 {
		s.cond.Wait() // an administrative Evict is still saving
	}
	for _, c := range s.sessions {
		_ = c.sess.Close() // nothing is in flight: Close cannot be refused
		s.setPages(c, 0)
	}
}

// finish completes c's session: every request for it, now and later,
// gets this result. Caller holds s.mu; waiters wake on the caller's
// broadcast.
func (s *Server) finish(c *session, res repro.RunResult, err error) {
	c.done = true
	c.result = res
	c.failed = err
}

// refuse fails the requests waiting on c with a cap's error and leaves
// the session as it rests, open and unfinished: the next Run queues it
// again, and finishes it if the cap has been raised meanwhile. Caller
// holds s.mu; waiters wake on the caller's broadcast.
func (s *Server) refuse(c *session, ce *CapError) {
	s.m.CapRejections++
	c.refused = ce
}

// setPages updates c's resident accounting: n is the footprint of its
// live machine (StepResult.Pages), 0 when it holds none.
func (s *Server) setPages(c *session, n int) {
	if c.pages > 0 {
		s.m.ResidentSessions--
		s.m.ResidentPages -= int64(c.pages)
	}
	c.pages = n
	if n > 0 {
		s.m.ResidentSessions++
		s.m.ResidentPages += int64(n)
		if s.m.ResidentPages > s.m.ResidentPeakPages {
			s.m.ResidentPeakPages = s.m.ResidentPages
		}
	}
}

// worker is one pool goroutine: pop the next slice in deterministic
// order, execute it without the lock, account, re-queue or complete and
// wake whoever waits on that — then evict over-cap residents, each saved
// without the lock as well, before taking the next slice.
func (s *Server) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for !s.closed && (s.queue.empty() || s.gcWait) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		c := s.queue.pop()
		switch {
		case c.evicting:
			c.wanted = true // its save is still running: evict queues it again
			continue
		case c.done:
			continue // failed by an eviction while it queued
		}
		t := s.tenants[c.tenant]
		if ce := t.budget(c.pages); ce != nil {
			// The tenant's cumulative budget ran out while this session
			// queued, or it already rests above the page cap: refuse the
			// slice. The session stays open and resting; raised caps can
			// finish it later.
			s.refuse(c, ce)
			s.cond.Broadcast()
			continue
		}
		c.running = true
		s.runningN++
		s.tick++
		c.lastTick = s.tick
		act := FaultNone
		if s.cfg.Fault != nil {
			act = s.cfg.Fault(FaultEvent{Tenant: c.tenant, Session: c.id, Phase: c.sess.Phase(), Slice: s.m.Slices})
		}
		s.mu.Unlock()

		sr, st, err := s.execSlice(c, act)

		s.mu.Lock()
		c.running = false
		s.runningN--
		s.m.Slices++
		s.m.WallNS += st.wall
		t.wallUsed += st.wall
		if st.resumed {
			s.m.Resumes++
			s.m.ResumeNS += st.wall
		}
		if st.died {
			s.m.WorkerDeaths++
		}
		if st.retried {
			s.m.Retries++
		}
		if st.failover {
			s.m.Failovers++
		}
		if st.bitOK {
			s.m.BitEqOK++
		}
		if st.bitFail {
			s.m.BitEqFail++
		}
		// sr is zero after a failed slice, and so is the footprint: the
		// slice's death took the machine with it.
		s.setPages(c, sr.Pages)
		switch ce := t.budget(sr.Pages); {
		case err != nil:
			s.finish(c, zeroResult, err)
		case sr.Done:
			t.vtUsed += sr.Result.VT
			s.m.Completed++
			s.finish(c, sr.Result, nil)
		case ce != nil:
			// Out of budget, or resting above the page cap: the next slice
			// would be refused, so refuse it now.
			s.refuse(c, ce)
		default:
			s.queue.push(c) // a Run queued it, and nothing has answered that Run yet
		}
		// Wake c's waiters before evicting: an eviction is its victim's
		// cost, not c's.
		s.cond.Broadcast()
		s.evictOverCap()
	}
}

// sliceStats is execSlice's accounting, folded into Metrics under the
// server lock.
type sliceStats struct {
	wall     int64
	resumed  bool
	died     bool
	retried  bool
	failover bool
	bitOK    bool
	bitFail  bool
}

// execSlice runs one timeslice of c without the server lock (the
// session's own lifecycle guards it; the dispatcher guarantees a
// single worker per session). Fault paths:
//
//   - A mid-slice death (injected kill or real trap) takes the live
//     machine with it but leaves the session resting at the pre-slice
//     barrier; the slice is re-run once in place, which rebuilds the
//     machine from the session's anchor by deterministic re-execution.
//     A deterministic program error recurs on the retry and fails the
//     request with the program's own error.
//   - A post-slice death (FaultCrashAfter) fails over to a fresh
//     Session re-admitted from the pre-slice manifest, re-runs the
//     slice, and asserts the re-run's digest equals the dead worker's —
//     the determinism claim, checked on every failover.
func (s *Server) execSlice(c *session, act FaultAction) (repro.StepResult, sliceStats, error) {
	var st sliceStats
	st.resumed = c.sess.State() == repro.StateSuspended

	var preMan *repro.Manifest
	if act == FaultCrashAfter {
		// Anchor the pre-slice state in the store so the failover has a
		// manifest to re-admit from — and so both attempts start from the
		// same anchor, which is what makes their digests comparable. A
		// fresh phase-0 session has nothing to anchor; its failover
		// re-binds from scratch instead.
		switch {
		case st.resumed:
			preMan = c.sess.LastManifest()
		case c.sess.Phase() > 0:
			m, err := c.sess.Suspend(s.cfg.Store)
			if err != nil {
				return repro.StepResult{}, st, err
			}
			preMan = m
			st.resumed = true // the step below rebuilds from the store
		}
	}
	if act == FaultCrashMid {
		c.armKill()
	}

	var start int64
	if s.cfg.Clock != nil {
		start = s.cfg.Clock()
	}
	sr, err := c.sess.Step(s.slice())
	if err != nil {
		// Worker died mid-slice: the session still rests at the pre-slice
		// barrier, so re-run the slice once on the same worker.
		st.died = true
		st.retried = true
		sr, err = c.sess.Step(s.slice())
	}
	if err == nil && act == FaultCrashAfter {
		st.died = true
		st.failover = true
		sr, err = s.failover(c, preMan, &st)
	}
	if s.cfg.Clock != nil {
		st.wall = s.cfg.Clock() - start
	}
	return sr, st, err
}

// failover replaces c's Session — whose worker "died" after completing
// a slice but before reporting — with a fresh one re-admitted from the
// pre-slice manifest (or re-bound from scratch for a phase-0 session),
// re-runs the slice, and compares the two sessions' digests: both
// attempts ran the same slice from the same anchor, so their resting
// checkpoints must be byte-identical.
func (s *Server) failover(c *session, preMan *repro.Manifest, st *sliceStats) (repro.StepResult, error) {
	dead, err := c.sess.Digest()
	if err != nil {
		return repro.StepResult{}, err
	}
	fresh, err := s.newSession()
	if err != nil {
		return repro.StepResult{}, err
	}
	if preMan != nil {
		err = fresh.BindSuspended(c.prog, s.cfg.Store, preMan)
	} else {
		err = fresh.Bind(c.prog)
	}
	if err != nil {
		return repro.StepResult{}, err
	}
	sr, err := fresh.Step(s.slice())
	if err != nil {
		_ = fresh.Close()
		return repro.StepResult{}, err
	}
	got, err := fresh.Digest()
	if err != nil {
		_ = fresh.Close()
		return repro.StepResult{}, err
	}
	if got == dead {
		st.bitOK = true
	} else {
		st.bitFail = true
	}
	// Adopt the failed-over copy; the dead worker's Session went down
	// with its process.
	_ = c.sess.Close()
	c.sess = fresh
	return sr, nil
}
