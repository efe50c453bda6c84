package serve

import (
	"fmt"
	"sync/atomic"

	"repro"
)

// SessionID names one open session, unique within the server. IDs are
// dense per tenant ("tenant/0", "tenant/1", …) so a request log is
// replayable.
type SessionID string

// session is the server-side record of one open session: the repro
// Session, the bound program (kept for failover rebinds), and the
// scheduling and accounting state the dispatcher maintains.
type session struct {
	id      SessionID
	tenant  string
	program string
	arg     uint64

	sess *repro.Session
	prog repro.Program // wrapped program; rebindable onto a fresh Session

	// kill is armed by the fault hook to make the next phase panic —
	// the worker-killed-mid-slice simulation. Read by the machine
	// goroutine inside the phase wrapper, hence atomic.
	kill atomic.Bool

	queued   bool  // in the run queue
	running  bool  // a goroutine holds the session outside s.mu: a slice, or an eviction
	lastTick int64 // logical time of the last dispatch (LRU eviction key)
	pages    int   // footprint of the session's live machine (0 = holds none)

	// evicting marks the holder as an eviction rather than a slice, and
	// wanted that the eviction is to queue the session once its state has
	// left the machine: a worker popped it meanwhile, or a Run arrived.
	evicting bool
	wanted   bool

	// refused is the cap error that failed the requests waiting since the
	// last Run; unlike failed it says nothing about the session.
	refused *CapError

	done   bool // final result computed (or the session itself failed)
	result repro.RunResult
	failed error
}

// armKill requests that the session's next phase panic.
func (c *session) armKill() { c.kill.Store(true) }

// takeKill consumes an armed kill.
func (c *session) takeKill() bool { return c.kill.CompareAndSwap(true, false) }

// lookup finds tenantName's session id. Cross-tenant probes report the
// same error as a genuinely unknown ID: one tenant cannot learn another
// tenant's session names.
func (s *Server) lookup(tenantName string, id SessionID) (*session, error) {
	c, ok := s.sessions[id]
	if !ok || c.tenant != tenantName {
		return nil, fmt.Errorf("serve: tenant %s has no session %s", tenantName, id)
	}
	return c, nil
}
