package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortedSessions returns the registry's sessions in ID order: the
// deterministic iteration the reference eviction choice below and the
// fault storm's final sweep are written against.
func (s *Server) sortedSessions() []*session {
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	out := make([]*session, len(ids))
	for i, id := range ids {
		out[i] = s.sessions[SessionID(id)]
	}
	return out
}

// evictimSorted is the eviction choice as it was first written — sort
// the whole registry by ID, then take the first least-recently-
// dispatched candidate — kept here as the reference the single-pass
// evictim must agree with.
func (s *Server) evictimSorted() *session {
	var victim *session
	for _, c := range s.sortedSessions() {
		if c.pages == 0 || c.running {
			continue
		}
		if victim == nil || c.lastTick < victim.lastTick {
			victim = c
		}
	}
	return victim
}

// TestEvictimMatchesSortedChoice replays a seeded dispatch history —
// opens, dispatches (several per tick, so ties occur, as they do when a
// tick is shared by never-dispatched sessions), completions, evictions,
// closes — against a bare registry and checks at every step that the
// single-pass evictim picks exactly the session the sort-based one did.
func TestEvictimMatchesSortedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE71C7))
	s := &Server{sessions: make(map[SessionID]*session)}
	var ids []SessionID
	next := 0
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(ids) == 0: // open
			// IDs that sort differently as strings than as numbers
			// ("t/10" < "t/9") keep the tie-break honest.
			id := SessionID(fmt.Sprintf("t%d/%d", rng.Intn(3), next))
			next++
			s.sessions[id] = &session{id: id}
			ids = append(ids, id)
		case op < 7: // dispatch: maybe share the previous tick
			c := s.sessions[ids[rng.Intn(len(ids))]]
			if rng.Intn(3) > 0 {
				s.tick++
			}
			c.lastTick = s.tick
			c.running = rng.Intn(4) == 0
			c.pages = 1 + rng.Intn(40)
		case op < 8: // a slice completes
			s.sessions[ids[rng.Intn(len(ids))]].running = false
		case op < 9: // evicted, or finished: no longer resident
			s.sessions[ids[rng.Intn(len(ids))]].pages = 0
		default: // close
			i := rng.Intn(len(ids))
			delete(s.sessions, ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		}
		if got, want := s.evictim(), s.evictimSorted(); got != want {
			// Both nil or both non-nil here: they filter identically.
			t.Fatalf("step %d: evictim chose %s (tick %d), the sorted sweep chose %s (tick %d)",
				step, got.id, got.lastTick, want.id, want.lastTick)
		}
	}
}
