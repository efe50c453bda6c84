package serve

// Checkpoint-backed eviction: the mechanism that lets open sessions
// outnumber resident ones by orders of magnitude. A resident session is
// a live machine parked at a phase barrier; Suspend has its root capture
// an Image there, pushes it into the shared content-addressed store as a
// chained manifest (costing only chunks new since its last save) and
// tears the machine down. The next dispatch rebuilds it transparently,
// bit-identical — so eviction policy is pure resource management and can
// never change a result. This is the one place a served session's state
// is serialized: when it leaves the machine, not on every slice.
//
// A save is store writes — milliseconds of file creates on a DirStore —
// so it runs the way a slice runs: the victim is marked busy under s.mu
// and saved outside it. One session's eviction costs that session's next
// request a resume; it does not stall Open, Run, CloseSession, Stats or
// another worker's accounting behind the dispatch lock.

// evictOverCap evicts least-recently-dispatched resting sessions until
// the number holding a live machine — not counting those whose eviction
// is already in flight on another goroutine — is within Config.Resident.
// The worker calls it after every slice. Caller holds s.mu, which each
// eviction releases around its save.
func (s *Server) evictOverCap() {
	if s.cfg.Resident <= 0 {
		return
	}
	for s.m.ResidentSessions-int64(s.evictingN) > int64(s.cfg.Resident) {
		victim := s.evictim()
		if victim == nil {
			return // everything resident is busy; re-check next slice
		}
		if err := s.evict(victim); err != nil {
			// The cap has to make progress: a victim that cannot be saved
			// is failed rather than picked again, and its machine closed
			// (LastManifest stays readable for GC) so that what Metrics
			// counts as resident is still exactly the live machines.
			_ = victim.sess.Close()
			s.finish(victim, zeroResult, err)
			s.setPages(victim, 0)
		}
	}
}

// evictim picks the least-recently-dispatched session holding a live
// machine that nothing is executing or saving: the least (lastTick, id),
// found in one pass over the registry. The order is total, so the choice
// is the same whatever order the map yields its sessions in —
// deterministic for a given dispatch history.
func (s *Server) evictim() *session {
	var victim *session
	for _, c := range s.sessions {
		if c.pages == 0 || c.running {
			continue
		}
		if victim == nil || c.lastTick < victim.lastTick ||
			(c.lastTick == victim.lastTick && c.id < victim.id) {
			victim = c
		}
	}
	return victim
}

// evict moves resting session c's state off its machine and into the
// store. Caller holds s.mu and has checked c is not running; evict marks
// c busy exactly as a dispatched slice is — running, counted in runningN
// so that GC quiesces behind it and CloseSession and Evict report it busy
// — releases s.mu for the save, and returns holding it again. c keeps
// counting as resident until its machine is torn down, and keeps its
// place in the run queue if it has one: a worker that pops it before the
// save has landed sets it aside as wanted, as a Run arriving meanwhile
// does, and evict queues it again.
//
// A save that fails leaves the machine live (Suspend fails before its
// teardown) and c resting as it did; the error is the caller's.
func (s *Server) evict(c *session) error {
	resident := c.pages > 0
	c.running, c.evicting = true, true
	s.runningN++
	if resident {
		s.evictingN++
	}
	s.mu.Unlock()

	var start, wall int64
	if s.cfg.Clock != nil {
		start = s.cfg.Clock()
	}
	_, err := c.sess.Suspend(s.cfg.Store)
	if s.cfg.Clock != nil {
		wall = s.cfg.Clock() - start
	}

	s.mu.Lock()
	c.running, c.evicting = false, false
	s.runningN--
	if resident {
		s.evictingN--
	}
	if err == nil {
		s.setPages(c, 0)
		s.m.Evictions++
		s.m.EvictNS += wall
	}
	if c.wanted {
		s.queue.push(c)
	}
	c.wanted = false
	s.cond.Broadcast()
	return err
}
