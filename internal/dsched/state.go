package dsched

// Scheduler state export/attach: the dsched half of checkpoint/restore.
//
// A scheduler's synchronization *objects* (mutexes, condition variables,
// barriers) and its cross-run telemetry live in the master's Go heap,
// while the authoritative lock words live in shared memory — which the
// machine image already captures. Exporting the heap half lets a phased
// program carry one scheduler across a checkpoint: the resumed process
// attaches a new Sched whose mutexes point at the same shared-memory
// words (the allocator is deterministic, so the addresses are already
// reserved in the restored RT), whose statistics continue from the
// recorded values, and whose next Run therefore schedules exactly as the
// uninterrupted run's would.
//
// Export is only valid between Runs, at a quiescent point: every thread
// collected, every waiter queue empty. Mid-round scheduler state cannot
// be serialized (thread quanta are live goroutines) — the same
// restriction the kernel's checkpoint enforces for spaces.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vm"
)

// State is the serializable scheduler bookkeeping.
type State struct {
	Quantum int64 `json:"quantum"` // configured quantum
	// Scale is always 1. It was the multiplier of a second quantum policy
	// since deleted; the member stays because session images hash these
	// bytes.
	Scale int64 `json:"scale"`
	// CommitEpoch is always written 0 and ignored when attached. It was
	// the shared-region commit epoch of a resync tracker since deleted
	// (copy-on-write identity already tells which tables are stale); the
	// member stays so the state bytes keep their shape, and states
	// written with an epoch still attach.
	CommitEpoch uint64    `json:"commit_epoch"`
	Stats       Stats     `json:"stats"`
	Mutexes     []vm.Addr `json:"mutexes"`  // shared-memory words, by Mutex index
	Conds       int       `json:"conds"`    // condition variable count
	Barriers    []int     `json:"barriers"` // participant count per barrier
}

// BusyError reports an ExportState attempted while the scheduler was not
// quiescent: threads still live or waiters queued on a sync object.
type BusyError struct{ Msg string }

func (e *BusyError) Error() string { return "dsched: export: " + e.Msg }

// BadConfigError reports an invalid scheduler configuration or state.
type BadConfigError struct {
	Field string
	Msg   string
}

func (e *BadConfigError) Error() string { return fmt.Sprintf("dsched: %s: %s", e.Field, e.Msg) }

// Validate checks a Config for values that would otherwise be silently
// replaced by defaults. Zero values remain valid (they select the
// documented defaults); negatives are programming errors.
func (c Config) Validate() error {
	if c.Quantum < 0 {
		return &BadConfigError{Field: "Quantum", Msg: fmt.Sprintf("negative quantum %d", c.Quantum)}
	}
	return nil
}

// ExportState captures the scheduler's bookkeeping at a quiescent point.
func (s *Sched) ExportState() (State, error) {
	for _, t := range s.threads {
		if t != nil && !t.done {
			return State{}, &BusyError{Msg: fmt.Sprintf("thread %d still live", t.id)}
		}
	}
	for i, m := range s.mutexes {
		if len(m.waiters) > 0 {
			return State{}, &BusyError{Msg: fmt.Sprintf("mutex %d has queued waiters", i)}
		}
	}
	for i, cv := range s.conds {
		if len(cv.waiters) > 0 {
			return State{}, &BusyError{Msg: fmt.Sprintf("cond %d has queued waiters", i)}
		}
	}
	for i, b := range s.barriers {
		if len(b.waiting) > 0 {
			return State{}, &BusyError{Msg: fmt.Sprintf("barrier %d has waiting threads", i)}
		}
	}
	st := State{
		Quantum: s.quantum,
		Scale:   1,
		Stats:   s.stats,
		Conds:   len(s.conds),
	}
	for _, m := range s.mutexes {
		st.Mutexes = append(st.Mutexes, m.addr)
	}
	for _, b := range s.barriers {
		st.Barriers = append(st.Barriers, b.need)
	}
	return st, nil
}

// AttachState rebuilds a scheduler from exported state over a restored
// runtime. The mutex words named in the state must lie inside rt's
// shared region (they do when rt was restored from the matching
// checkpoint); their contents — lock flags and owners — come from the
// restored memory image.
func AttachState(rt *core.RT, cfg Config, st State) (*Sched, error) {
	s, err := New(rt, cfg)
	if err != nil {
		return nil, err
	}
	if st.Quantum <= 0 {
		return nil, &BadConfigError{Field: "State.Quantum", Msg: fmt.Sprintf("non-positive quantum %d", st.Quantum)}
	}
	if st.Scale != 1 {
		return nil, &BadConfigError{Field: "State.Scale", Msg: fmt.Sprintf("scale %d, want 1", st.Scale)}
	}
	base, size := rt.SharedRange()
	for i, a := range st.Mutexes {
		if uint64(a) < uint64(base) || uint64(a)+16 > uint64(base)+size {
			return nil, &BadConfigError{Field: "State.Mutexes",
				Msg: fmt.Sprintf("mutex %d word %#x outside shared region", i, a)}
		}
	}
	s.quantum = st.Quantum
	s.stats = st.Stats
	for _, a := range st.Mutexes {
		s.mutexes = append(s.mutexes, &mutexState{addr: a})
	}
	for i := 0; i < st.Conds; i++ {
		s.conds = append(s.conds, &condState{mu: make(map[int]Mutex)})
	}
	for _, need := range st.Barriers {
		s.barriers = append(s.barriers, &barrierState{need: need})
	}
	return s, nil
}
