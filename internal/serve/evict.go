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

// evictOverCap suspends least-recently-dispatched resting sessions
// until the number holding a live machine is within Config.Resident.
// Called under s.mu after every slice and admission.
func (s *Server) evictOverCap() {
	if s.cfg.Resident <= 0 {
		return
	}
	for s.m.ResidentSessions > int64(s.cfg.Resident) {
		victim := s.evictim()
		if victim == nil {
			return // everything resident is mid-slice; re-check next slice
		}
		if _, err := victim.sess.Suspend(s.cfg.Store); err != nil {
			// A failed eviction leaves the session resident and intact;
			// fail its request rather than wedging the eviction loop.
			s.finish(victim, zeroResult, err)
			s.setPages(victim, 0)
			continue
		}
		s.setPages(victim, 0)
		s.m.Evictions++
	}
}

// evictim picks the least-recently-dispatched session holding a live
// machine that no worker is executing: the least (lastTick, id), found
// in one pass over the registry. The order is total, so the choice is
// the same whatever order the map yields its sessions in —
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
