package repro

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/imgenc"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// A Session is the library's coherent entry point: one builder that
// composes everything the historical free functions configured
// separately — the machine (kernel.Config), the runtime (shared-region
// size), console I/O, and trace
// record/replay — and the home of deterministic checkpoint/restore.
//
// A Session is a validated configuration plus the run entry points.
// Run, RunProgram and RunToCheckpoint each build a fresh machine, run it
// and tear it down. A session bound to a program (Bind, BindSuspended)
// owns a live machine whose root program parks at a phase barrier
// between Steps, so a timeslice costs the program's own phases plus one
// goroutine handoff; it is the one way a run is saved, resumed or
// captured mid-way.
//
// # Checkpoint/restore
//
// Programs that want mid-run persistence are written phased (Program):
// an explicit sequence of barrier-delimited phases, each of which forks,
// joins and barriers as it pleases but returns with every thread
// collected. At any phase barrier the Session can capture an Image — a
// versioned serialization of the entire space tree (memory, snapshots,
// COW sharing), every space's virtual time, instruction
// and traffic counters, the device cursors, the runtime's allocator and
// placement state, the scheduler state the program stashes, and (when
// recording) the trace log so far. Suspend saves it into a BlobStore as a
// chained Manifest; BindSuspended on a fresh Session — or in a fresh
// process — continues the run from it bit-identically: final checksums,
// conflict reports and virtual times equal the uninterrupted run's.
// Checkpointing is itself a pure observation: a run that captures images
// is bit-identical to one that does not.
//
// An Image is what state looks like when it leaves the machine. A bound
// session captures one only then — Suspend or Digest — never as a toll
// on a timeslice.
//
// # Lifecycle
//
// A Session moves through an explicit lifecycle:
//
//	Idle ──Bind──▶ Quiescent ──Step──▶ Running ──▶ Quiescent
//	                  │   ▲   (root parked             │
//	                  │   │    at a barrier)           │
//	                  │   └──────────Step──────────────┘
//	            Suspend (capture, save, tear the machine down)
//	                  ▼
//	               Suspended ──Step──▶ (machine rebuilt from the store) ──▶ Quiescent
//
//	any resting state ──Close──▶ Closed
//
// The states:
//
//   - Idle: no program bound; Run, RunProgram, RunToCheckpoint and the
//     two binds are available, and the one-shot runs leave it Idle.
//   - Running: an entry point is in flight. Any lifecycle call made
//     concurrently fails immediately with *StateError instead of
//     queueing behind the run (a Suspend mid-run, a second Step).
//   - Quiescent: a bound session rests at a phase barrier, as a live
//     machine whose root is parked there (none yet before the first
//     Step, none any more once the program has finished: a finished
//     session keeps only its result). Step runs it on, Digest captures
//     it where it stands, Suspend captures it, saves the image and tears
//     the machine down. Only a bound session is ever Quiescent.
//   - Suspended: the checkpoint lives only in a BlobStore (as a chained
//     Manifest); the session holds neither machine nor image. Step
//     rebuilds the machine from the store and runs on.
//   - Closed: terminal; everything but State and Close fails with
//     *StateError. Close tears a live machine down and waits for its
//     goroutines.
//
// # Crash retry
//
// A bound session remembers its anchor: nothing for a fresh Bind, else
// the manifest it was last suspended to or admitted from. A slice that
// dies — a phase panics, the machine traps — takes the live machine
// with it; the next Step rebuilds one from the anchor and
// deterministically re-executes the phases up to the barrier the
// session rested at before running the requested slice. The cost is
// paid only on a fault, and the result is bit-identical by
// construction. Re-execution is silent: the console output of the
// phases it repeats was delivered when they first ran. (It re-reads the
// devices: with the default deterministic devices or a replayed log that
// is exact; a session on live nondeterministic sources gets a fresh,
// self-consistent run.)
//
// The stepped form (Bind/Step/Suspend) is also what a multi-tenant
// server drives (internal/serve): sessions run one timeslice at a time,
// yield at quiescence points, and are evicted to a shared store while
// idle.
type Session struct {
	cfg SessionConfig

	// mu serializes the Run*/Step entry points and guards the per-run
	// fields below: a Session is reusable run after run, but one run at
	// a time — concurrent runs would cross-wire trace splicing and
	// checkpoint collection. Lifecycle entry points TryLock it: a call
	// arriving while a run is in flight gets *StateError{StateRunning}
	// rather than blocking. Concurrency belongs inside a run (the
	// machine), not across runs of one Session; use separate Sessions to
	// run in parallel.
	mu sync.Mutex

	// state is the session's resting lifecycle position. StateRunning is
	// never stored: it is implied by mu being held by an entry point.
	state SessionState

	// prog is the program bound by Bind/BindSuspended; nil for a session
	// driven by the one-shot entry points.
	prog *Program

	// live is a bound session's machine, its root parked at barrier pos;
	// nil before the first Step, while Suspended, once the program has
	// finished, and after a slice died.
	live *liveMachine

	// anchor is the manifest (in anchorStore) a bound session's machine
	// is rebuilt from — set by Suspend and BindSuspended, nil for a
	// fresh Bind, which rebuilds by running from the start. It moves
	// only when the machine is torn down, so the live machine's state is
	// always a function of (anchor, pos) alone. The next Suspend chains
	// onto it.
	anchor      *Manifest
	anchorStore BlobStore

	// final is the bound program's result once every phase has run.
	final *RunResult

	// current is the image of the barrier the session rests at, when one
	// has been captured there (by Digest, or for a Suspend that failed to
	// save); the next Step drops it.
	current *Image

	// pos is the phase barrier the session rests at (-1 for a
	// BindSuspended session that has not loaded its image yet).
	pos int

	// log is the live recording of the most recent Run* call or of the
	// live machine (Record mode); prefix is the already-recorded log a
	// resumed session splices in front of it.
	log    *TraceLog
	prefix *TraceLog
}

// SessionState is a Session's position in its lifecycle.
type SessionState uint8

const (
	// StateIdle is a session with no bound program: fresh, or between
	// one-shot runs.
	StateIdle SessionState = iota
	// StateRunning marks an entry point in flight.
	StateRunning
	// StateQuiescent is a bound session resting at a phase barrier, as a
	// live machine with its root parked there (freshly bound, about to
	// run phase 0; or finished, holding its result).
	StateQuiescent
	// StateSuspended is a session whose checkpoint has been evicted to a
	// BlobStore; only the chained manifest is held in memory.
	StateSuspended
	// StateClosed is terminal.
	StateClosed
)

func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateRunning:
		return "Running"
	case StateQuiescent:
		return "Quiescent"
	case StateSuspended:
		return "Suspended"
	case StateClosed:
		return "Closed"
	}
	return fmt.Sprintf("SessionState(%d)", uint8(s))
}

// StateError reports a lifecycle entry point invoked from a state that
// does not permit it: Suspend or a second Step while a run is in flight
// (StateRunning), Step without a bound program, Suspend with nothing
// captured, a one-shot run on a bound session, anything but Close on a
// Closed session.
type StateError struct {
	Op    string       // the entry point that was refused
	State SessionState // the state the session was in
	Msg   string       // optional detail
}

func (e *StateError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("repro: %s in session state %s: %s", e.Op, e.State, e.Msg)
	}
	return fmt.Sprintf("repro: %s not allowed in session state %s", e.Op, e.State)
}

// begin acquires the session for the entry point op, failing with
// *StateError when a run is already in flight (no queueing) or the
// session is not in one of the allowed states. On success the caller
// holds mu and must release it.
func (s *Session) begin(op string, allowed ...SessionState) error {
	if !s.mu.TryLock() {
		return &StateError{Op: op, State: StateRunning}
	}
	for _, a := range allowed {
		if s.state == a {
			return nil
		}
	}
	st := s.state
	s.mu.Unlock()
	return &StateError{Op: op, State: st}
}

// State reports the session's lifecycle state. A session whose mutex is
// held by an in-flight entry point reports StateRunning.
func (s *Session) State() SessionState {
	if !s.mu.TryLock() {
		return StateRunning
	}
	defer s.mu.Unlock()
	return s.state
}

// SessionConfig is the unified configuration a Session is built from.
// The zero value is a valid single-node deterministic machine with
// default cost model and shared-region size.
type SessionConfig struct {
	// Machine configures the simulated machine (nodes, CPUs, cost
	// model). Machine.Console must be nil when Input/Output are set; the
	// session builds the console.
	Machine MachineConfig
	// SharedSize is the private-workspace shared region size (0 selects
	// the default 64 MiB).
	SharedSize uint64
	// Record captures every nondeterministic device input of each run
	// into the log returned by TraceLog.
	Record bool
	// Replay drives the devices from a previously recorded log instead
	// of the configured sources. Mutually exclusive with Record.
	Replay *TraceLog
	// Input / Output are the console streams.
	Input  io.Reader
	Output io.Writer
}

// SessionOption mutates a SessionConfig under construction.
type SessionOption func(*SessionConfig)

// WithMachine sets the machine configuration.
func WithMachine(m MachineConfig) SessionOption {
	return func(c *SessionConfig) { c.Machine = m }
}

// WithSharedSize sets the shared-region size.
func WithSharedSize(n uint64) SessionOption {
	return func(c *SessionConfig) { c.SharedSize = n }
}

// WithRecord enables trace recording.
func WithRecord() SessionOption {
	return func(c *SessionConfig) { c.Record = true }
}

// WithReplay replays a recorded trace log.
func WithReplay(l *TraceLog) SessionOption {
	return func(c *SessionConfig) { c.Replay = l }
}

// WithConsole sets the console streams.
func WithConsole(in io.Reader, out io.Writer) SessionOption {
	return func(c *SessionConfig) { c.Input, c.Output = in, out }
}

// ConfigError reports an invalid session or facade configuration value.
// The historical free-function constructors replaced such values with
// silent defaults; the Session path rejects them.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("repro: config %s: %s", e.Field, e.Reason) }

// maxSharedSize bounds the shared region: it must fit between SharedBase
// and the top of the 32-bit address space.
const maxSharedSize = uint64(1<<32) - uint64(core.SharedBase)

// NewSession builds a Session from functional options.
func NewSession(opts ...SessionOption) (*Session, error) {
	var cfg SessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	return NewSessionFromConfig(cfg)
}

// NewSessionFromConfig builds a Session from a unified configuration,
// validating it: values the legacy constructors silently replaced with
// defaults are rejected with *ConfigError (zero values still select the
// documented defaults).
func NewSessionFromConfig(cfg SessionConfig) (*Session, error) {
	if cfg.Machine.Nodes < 0 {
		return nil, &ConfigError{Field: "Machine.Nodes", Reason: fmt.Sprintf("negative node count %d", cfg.Machine.Nodes)}
	}
	if cfg.Machine.CPUsPerNode < 0 {
		return nil, &ConfigError{Field: "Machine.CPUsPerNode", Reason: fmt.Sprintf("negative CPU count %d", cfg.Machine.CPUsPerNode)}
	}
	if cfg.SharedSize > maxSharedSize {
		return nil, &ConfigError{Field: "SharedSize", Reason: fmt.Sprintf("%d exceeds the %d-byte address space above the shared base", cfg.SharedSize, maxSharedSize)}
	}
	if cfg.Record && cfg.Replay != nil {
		return nil, &ConfigError{Field: "Record/Replay", Reason: "mutually exclusive"}
	}
	if cfg.Machine.Console != nil && (cfg.Input != nil || cfg.Output != nil || cfg.Record || cfg.Replay != nil) {
		return nil, &ConfigError{Field: "Machine.Console", Reason: "set Input/Output on the session instead of supplying a console"}
	}
	return &Session{cfg: cfg}, nil
}

// TraceLog returns the trace recorded by the most recent Run* call
// (Record mode only) — for a bound session, by its machine so far. For
// a run resumed from a checkpoint the log is complete, not a suffix:
// the restore re-records the image's prefix while fast-forwarding the
// devices, so the result is bit-identical to the log an uninterrupted
// recording would have produced. A live machine is still appending to
// its log, so a resident session hands out a snapshot of it.
func (s *Session) TraceLog() *TraceLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live != nil && s.log != nil {
		return s.log.Clone()
	}
	return s.log
}

// deviceConfig materializes the kernel configuration for one run:
// console plumbing (writing to out), replay, resume-splicing and
// recording, in that wrapping order.
func (s *Session) deviceConfig(out io.Writer) MachineConfig {
	cfg := s.cfg.Machine
	input := s.cfg.Input
	if s.cfg.Replay != nil {
		trace.Replay(&cfg, s.cfg.Replay)
		if len(s.cfg.Replay.Input) > 0 {
			input = s.cfg.Replay.ReplayInput()
		}
	}
	if s.prefix != nil {
		// Resuming a recorded run: the first reads of each device replay
		// the recorded prefix (consumed by the restore's fast-forward),
		// then reads fall through to the live sources.
		trace.ReplayPrefix(&cfg, s.prefix)
		input = s.prefix.PrefixReader(input)
	}
	if s.cfg.Record {
		s.log = trace.Record(&cfg)
		if input != nil {
			input = s.log.RecordInput(input)
		}
	}
	if input != nil || out != nil {
		cfg.Console = kernel.NewConsole(input, out)
	}
	return cfg
}

// Run executes main as a deterministic parallel program on a fresh
// machine built from the session configuration — the Session form of the
// package-level Run. Lifecycle misuse (a concurrent run in flight, a
// closed or bound session) surfaces as a StatusNever result whose Err is
// a *StateError.
func (s *Session) Run(main func(rt *RT) uint64) RunResult {
	if err := s.begin("Run", StateIdle); err != nil {
		return RunResult{Status: kernel.StatusNever, Err: err}
	}
	defer s.mu.Unlock()
	m := kernel.New(s.deviceConfig(s.cfg.Output))
	return m.Run(func(env *kernel.Env) {
		env.SetRet(main(core.New(env, s.cfg.SharedSize)))
	}, 0)
}

// Program is a phased deterministic program: the checkpointable form.
// All cross-phase state must live in the shared region (or in the
// sections Snapshot stashes); Go-side variables do not survive a resume.
type Program struct {
	// Phases is the number of barrier-delimited phases.
	Phases int
	// Layout replays the program's deterministic allocation sequence.
	// It runs before Init on a fresh start and again on every resume —
	// allocation is a pure bump pointer, so re-running it re-derives the
	// addresses Alloc handed out before the checkpoint. It must not read
	// or write memory, fork, or depend on anything but rt.Alloc order.
	Layout func(rt *RT)
	// Init writes the program's initial state. Fresh starts only.
	Init func(rt *RT)
	// Phase runs one barrier-delimited phase: fork/join/barrier freely,
	// but return with every thread collected. An error aborts the run.
	Phase func(rt *RT, phase int) error
	// Result computes the program's result after the last phase.
	Result func(rt *RT) uint64
	// Snapshot, if non-nil, contributes named sections to each captured
	// Image (e.g. a scheduler's exported state). It must not mutate
	// anything: a checkpointing run must stay bit-identical to an
	// uninterrupted one.
	Snapshot func(rt *RT) map[string][]byte
	// Restore, if non-nil, receives the image's sections on resume,
	// after Layout and before the first resumed phase.
	Restore func(rt *RT, sections map[string][]byte) error
}

// ProgramError reports a phased-program structural problem (rather than
// an error from the program's own phases).
type ProgramError struct{ Msg string }

func (e *ProgramError) Error() string { return "repro: program: " + e.Msg }

// RunProgram runs all phases of p on a fresh machine, through Result,
// and returns the machine result and the first program error (phase
// error, conflict, crash) if any — what a bound session's Steps would
// deliver, with nothing bound: the session stays Idle.
func (s *Session) RunProgram(p Program) (RunResult, error) {
	if err := s.begin("RunProgram", StateIdle); err != nil {
		return RunResult{}, err
	}
	defer s.mu.Unlock()
	sr, err := s.drive(p, p.Phases+1, nil)
	return sr.Result, err
}

// RunToCheckpoint runs the first afterPhases phases of p on a fresh
// machine, captures an Image at that barrier, tears the machine down
// and returns the image; the session stays Idle. To carry on from the
// barrier, Bind and Step(afterPhases) reach it with the machine kept, and
// Suspend saves it where BindSuspended can pick it up.
func (s *Session) RunToCheckpoint(p Program, afterPhases int) (*Image, error) {
	if afterPhases < 1 || afterPhases > p.Phases {
		return nil, &ProgramError{Msg: fmt.Sprintf("checkpoint barrier %d outside [1,%d]", afterPhases, p.Phases)}
	}
	if err := s.begin("RunToCheckpoint", StateIdle); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if _, err := s.drive(p, afterPhases, nil); err != nil {
		return nil, err
	}
	img, err := s.captureParked()
	s.teardown()
	return img, err
}

// startPhased builds a machine — restored from img when non-nil — and
// starts its root on the phase loop, the only one there is: set the
// runtime up (Layout and Init on a fresh start; Attach, Layout and
// Restore on a resume), then alternate barriers and phases, then Result.
// At every barrier k it reaches — the one it starts at, then the one
// after each phase — the root parks if k is the stop barrier
// (atBarrier). With held set, the machine's console output is held back
// until released (revive). Whoever starts a machine must see it exit:
// bury it, or tear it down.
func (s *Session) startPhased(p Program, img *Image, stop int, held bool) (*liveMachine, error) {
	if err := bindable(p); err != nil {
		return nil, err
	}
	if img != nil {
		s.prefix = img.TracePrefix
		defer func() { s.prefix = nil }()
	}

	l := &liveMachine{s: s, p: p, stop: stop,
		ctl: make(chan liveCmd), evt: make(chan liveEvt), exited: make(chan struct{})}
	out := s.cfg.Output
	if held && out != nil {
		l.held = &heldOutput{w: out}
		out = l.held
	}
	l.m = kernel.New(s.deviceConfig(out))
	start := 0
	if img != nil {
		if err := l.m.Restore(img.Kernel); err != nil {
			return nil, err
		}
		start = img.Phase
		if start > p.Phases {
			return nil, &ProgramError{Msg: fmt.Sprintf("image resumes at phase %d of a %d-phase program", start, p.Phases)}
		}
	}

	l.m.Start(func(env *kernel.Env) {
		defer close(l.exited)
		var rt *RT
		if img != nil {
			rt, l.err = core.Attach(env, img.RT, p.Layout)
			if l.err == nil && p.Restore != nil {
				l.err = p.Restore(rt, img.User)
			}
			if l.err != nil {
				return
			}
		} else {
			rt = core.New(env, s.cfg.SharedSize)
			if p.Layout != nil {
				p.Layout(rt)
			}
			if p.Init != nil {
				p.Init(rt)
			}
		}
		for k := start; ; k++ {
			if l.atBarrier(env, rt, k) {
				return
			}
			if k == p.Phases {
				break
			}
			if l.err = p.Phase(rt, k); l.err != nil {
				return
			}
		}
		if p.Result != nil {
			env.SetRet(p.Result(rt))
		}
		l.finished = true
	}, 0)
	return l, nil
}

// capture takes one checkpoint at a phase barrier: the kernel image of
// the whole space tree plus the runtime, program and trace state.
func (s *Session) capture(env *Env, rt *RT, p Program, resumePhase int) (*Image, error) {
	kimg, err := env.Checkpoint(kernel.CheckpointOpts{AllowParked: rt.DelegateRefs()})
	if err != nil {
		return nil, err
	}
	im := &Image{Phase: resumePhase, RT: rt.ExportState(), Kernel: kimg}
	if p.Snapshot != nil {
		im.User = p.Snapshot(rt)
	}
	if s.cfg.Record && s.log != nil {
		im.TracePrefix = s.log.Clone()
	}
	return im, nil
}

// --- stepped lifecycle --------------------------------------------------------

// StepResult describes where one Step left the session.
type StepResult struct {
	// Phase is the barrier the session now rests at.
	Phase int
	// Done reports that every phase has run; Result is valid.
	Done bool
	// Pages is the resident footprint of the session's live machine at
	// the barrier it rests at — its cost while Quiescent: the distinct
	// level-2 page tables of every space and merge snapshot in the
	// machine plus the distinct pages they back (kernel.Env.Footprint),
	// read off the machine's frame pool as the frames it has out, with
	// nothing walked or serialized.
	// It is deterministic (a function of the program's history), at
	// least 1 for a live machine, and 0 once Done: a finished session
	// holds only its result.
	Pages int
	// Result is the machine result of the final slice (Done), or of a
	// slice that died: what the machine had to say, as RunProgram
	// reports it beside the error.
	Result RunResult
}

// liveMachine is one execution of the phase loop on one machine, and
// the channels its root and the session hand control over. Exactly one
// side runs at a time: the session sends a command only to a root it
// knows is parked (it has received that park's event), then awaits the
// next event. The root writes err and finished; the session reads them
// only after the root has handed control back (an event, or its exit).
type liveMachine struct {
	s *Session
	p Program
	m *kernel.Machine

	err      error // first program error: Attach/Restore failure, phase error, capture failure
	finished bool  // Result ran: the root halted because the program is over

	// held is the console output of a machine revived to a barrier the
	// session already passed, nil otherwise; the session releases it once
	// the root parks there.
	held *heldOutput

	// stop is the barrier the root parks at next (beyond the last phase:
	// never — run through Result and halt). The session sets it before
	// the root starts; after that only the root touches it.
	stop int
	// ctl carries commands to the parked root. Closing it tells the
	// root to halt where it stands.
	ctl chan liveCmd
	// evt carries the root's answers: one per park, one per capture.
	evt chan liveEvt
	// exited is closed when the root program returns or unwinds — done,
	// failed or killed — so nobody waits for word from a dead root.
	exited chan struct{}
}

// liveCmd is what the session asks of a parked root.
type liveCmd struct {
	capture bool // capture an Image of this barrier and answer with it
	stop    int  // otherwise: run on and park at barrier stop
}

// liveEvt is one answer from the root.
type liveEvt struct {
	phase int    // the barrier the root is parked at
	pages int    // the machine's footprint there (park events)
	img   *Image // the image (capture answers)
	err   error
}

// atBarrier is what the root does at barrier k: short
// of the stop barrier it lets the loop run on; at it, it reports the
// park and serves capture commands until told to run on or to halt.
func (l *liveMachine) atBarrier(env *Env, rt *RT, k int) (halt bool) {
	if k < l.stop {
		return false
	}
	l.evt <- liveEvt{phase: k, pages: env.Footprint()}
	for cmd := range l.ctl {
		if !cmd.capture {
			l.stop = cmd.stop
			return false
		}
		img, err := l.s.capture(env, rt, l.p, k)
		l.evt <- liveEvt{phase: k, img: img, err: err}
	}
	return true
}

// await blocks until the root answers (parked, or a capture done) or
// exits; ok is false for an exit.
func (l *liveMachine) await() (ev liveEvt, ok bool) {
	select {
	case ev = <-l.evt:
		return ev, true
	case <-l.exited:
		return liveEvt{}, false
	}
}

// teardown halts the session's live machine, if any, and waits until
// none of its goroutines remain. The root must be parked.
func (s *Session) teardown() {
	if s.live == nil {
		return
	}
	close(s.live.ctl)
	s.live.m.Wait()
	s.live = nil
}

// loadAnchor returns the image the session's next machine is rebuilt
// from: nil for a fresh Bind, else the anchor manifest's.
func (s *Session) loadAnchor() (*Image, error) {
	if s.anchor == nil {
		return nil, nil
	}
	return LoadImage(s.anchorStore, s.anchor)
}

// drive runs p until its root parks at barrier stop, reporting the
// barrier and the machine's footprint there — or, for stop beyond the
// last phase, until it has computed Result and halted (Done; no machine
// remains). With no live machine it first builds one from img (a bound
// session's loaded anchor; nil starts from scratch).
//
// If the root exits short of stop — a phase failed, panicked (the
// kernel converts panics into trap statuses) or trapped — the machine
// is gone, the session still rests where it rested, the error is the
// program's own, and Result is what the machine had to say.
func (s *Session) drive(p Program, stop int, img *Image) (StepResult, error) {
	l := s.live
	if l != nil {
		l.ctl <- liveCmd{stop: stop}
	} else {
		var err error
		if l, err = s.startPhased(p, img, stop, false); err != nil {
			return StepResult{}, err
		}
		s.live = l
	}
	if ev, parked := l.await(); parked {
		s.pos = ev.phase
		return StepResult{Phase: ev.phase, Pages: ev.pages}, nil
	}
	res, err := s.bury()
	if err == nil && !l.finished {
		err = &ProgramError{Msg: fmt.Sprintf("slice ended before barrier %d", stop)}
	}
	if err != nil {
		return StepResult{Result: res}, err
	}
	s.pos = p.Phases
	return StepResult{Phase: p.Phases, Done: true, Result: res}, nil
}

// bury collects the live machine after its root has exited and reports
// the root's result and the error that ended it, if one did.
func (s *Session) bury() (RunResult, error) {
	l := s.live
	s.live = nil
	res := l.m.Wait()
	if l.err != nil {
		return res, l.err
	}
	return res, res.Err
}

// captureParked has the parked root capture an image of the barrier it
// stands at.
func (s *Session) captureParked() (*Image, error) {
	s.live.ctl <- liveCmd{capture: true}
	ev, ok := s.live.await()
	if !ok {
		_, err := s.bury()
		if err == nil {
			err = &ProgramError{Msg: "machine halted during a capture"}
		}
		return nil, err
	}
	return ev.img, ev.err
}

// revive rebuilds the machine a died slice or the program's end took
// down, parked at the barrier the session rests at: restored from img,
// the loaded anchor (nil: a fresh start), then re-executing the phases
// in between. Those phases' console output was delivered when they
// first ran, so it is held back until the root parks.
func (s *Session) revive(img *Image) error {
	l, err := s.startPhased(*s.prog, img, s.pos, true)
	if err != nil {
		return err
	}
	s.live = l
	if _, parked := l.await(); !parked {
		_, err := s.bury()
		if err == nil {
			err = &ProgramError{Msg: fmt.Sprintf("re-execution ended before barrier %d", s.pos)}
		}
		return err
	}
	if l.held != nil {
		l.held.released = true
	}
	return nil
}

// heldOutput is the console output of a revived machine: it drops what
// the re-executed phases write until the session releases it. The
// release happens while the root is parked, so the handoff orders it
// before every later write.
type heldOutput struct {
	w        io.Writer
	released bool
}

func (h *heldOutput) Write(p []byte) (int, error) {
	if !h.released {
		return len(p), nil
	}
	return h.w.Write(p)
}

// restingImage returns the image of the barrier the bound session rests
// at, capturing it if none is held; nil when there is nothing to capture
// (no phase run). The parked root captures where it stands. With no live
// machine — a slice died, or the program has finished — one is first
// revived; a finished session's is torn down again once the image is in
// hand, so it is captured at most once however often it is saved.
func (s *Session) restingImage() (*Image, error) {
	switch {
	case s.current != nil:
		return s.current, nil
	case s.live == nil && s.final == nil && s.anchor == nil && s.pos == 0:
		// Bound, but no phase has run (or only a first slice that died).
		return nil, nil
	}
	if s.live == nil {
		if s.final != nil {
			// The revived machine re-records the trace only as far as the
			// barrier; the finished run's own log is the complete one.
			defer func(log *TraceLog) { s.log = log }(s.log)
		}
		img, err := s.loadAnchor()
		if err != nil {
			return nil, err
		}
		if err := s.revive(img); err != nil {
			return nil, err
		}
	}
	img, err := s.captureParked()
	if err != nil {
		return nil, err
	}
	s.current = img
	if s.final != nil {
		s.teardown()
	}
	return s.current, nil
}

// bindable validates a program's shape: what Bind and BindSuspended
// refuse up front and the phase loop refuses before building a machine.
func bindable(p Program) error {
	if p.Phases < 0 || (p.Phases > 0 && p.Phase == nil) {
		return &ProgramError{Msg: "Phase function missing"}
	}
	return nil
}

// Bind attaches a phased program to the session for stepped execution,
// leaving it Quiescent at phase 0. Binding builds nothing: the machine
// comes to life on the first Step. A bound session is driven with
// Step/Suspend/Digest/Close; the one-shot entry points refuse it.
func (s *Session) Bind(p Program) error {
	if err := s.begin("Bind", StateIdle); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if err := bindable(p); err != nil {
		return err
	}
	s.prog = &p
	s.current = nil
	s.anchor, s.anchorStore = nil, nil
	s.pos = 0
	s.state = StateQuiescent
	return nil
}

// BindSuspended attaches a program to a checkpoint that lives in a
// store — the admission path for a session that some other process (or
// a killed worker) left suspended. The session starts Suspended; the
// first Step loads the image, rebuilds the machine and continues it,
// and later Suspends chain onto m.
func (s *Session) BindSuspended(p Program, store BlobStore, m *Manifest) error {
	if err := s.begin("BindSuspended", StateIdle); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if err := bindable(p); err != nil {
		return err
	}
	if store == nil || m == nil {
		return &ProgramError{Msg: "BindSuspended needs a store and a manifest"}
	}
	s.prog = &p
	s.current = nil
	s.anchor, s.anchorStore = m, store
	s.pos = -1 // unknown until the first Step loads the image
	s.state = StateSuspended
	return nil
}

// Step runs the bound program forward by at most budget phases and
// leaves the session Quiescent at the barrier it stops at — its root
// parked there, nothing captured, nothing serialized. The first Step,
// and the first after a Suspend, build the machine (from scratch, or
// from the image in the store) before running. The final slice runs
// through the program's Result; the machine then halts and the session
// keeps the result, so re-stepping a finished session delivers it again
// without running anything.
//
// A slice that dies mid-way — a phase panics (the kernel converts the
// panic into a trap status) or the machine traps — returns that error
// and takes the live machine with it, but the session still rests at
// the pre-slice barrier: the next Step rebuilds the machine from the
// anchor and re-executes up to that barrier (silently: see revive)
// before running its slice, so a killed worker's slice can simply be
// re-run. Because execution is deterministic, the retry's results — and
// its Digest at any barrier — equal what the undisturbed run would have
// produced.
func (s *Session) Step(budget int) (StepResult, error) {
	if err := s.begin("Step", StateQuiescent, StateSuspended); err != nil {
		return StepResult{}, err
	}
	defer s.mu.Unlock()
	if s.prog == nil {
		return StepResult{}, &StateError{Op: "Step", State: s.state, Msg: "no program bound; Bind one first"}
	}
	if budget < 1 {
		return StepResult{}, &ProgramError{Msg: fmt.Sprintf("step budget %d (must be >= 1)", budget)}
	}
	if s.final != nil {
		return StepResult{Phase: s.pos, Done: true, Result: *s.final}, nil
	}
	var img *Image
	pos := s.pos
	if s.live == nil {
		var err error
		if img, err = s.loadAnchor(); err != nil {
			return StepResult{}, err
		}
		from := 0
		if img != nil {
			from = img.Phase
		}
		if pos < 0 {
			pos = from
		}
		if pos > from { // a slice died past the anchor
			if err := s.revive(img); err != nil {
				return StepResult{}, err
			}
		}
	}
	stop := pos + budget
	if stop >= s.prog.Phases {
		stop = s.prog.Phases + 1 // the last slice runs on through Result
	}
	sr, err := s.drive(*s.prog, stop, img)
	if err != nil {
		return sr, err
	}
	if sr.Done {
		s.final = &sr.Result
	}
	s.current = nil
	s.state = StateQuiescent
	return sr, nil
}

// Suspend captures the session's resting checkpoint, evicts it into
// store and tears the live machine down, leaving the session Suspended:
// its only cost until the next Step is the chained manifest. Successive
// Suspends chain — onto the previous one, or the manifest BindSuspended
// admitted — so each eviction stores only chunks new since then. The
// manifest becomes the session's anchor, and BindSuspended resumes it
// on any Session with the same configuration.
func (s *Session) Suspend(store BlobStore) (*Manifest, error) {
	if err := s.begin("Suspend", StateQuiescent); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	img, err := s.restingImage()
	if err != nil {
		return nil, err
	}
	if img == nil {
		return nil, &StateError{Op: "Suspend", State: s.state,
			Msg: "no checkpoint to evict; Step first"}
	}
	m, err := SaveImage(store, img, s.anchor)
	if err != nil {
		return nil, err
	}
	s.teardown()
	s.anchor, s.anchorStore = m, store
	s.current = nil
	s.state = StateSuspended
	return m, nil
}

// Digest returns the content key of the canonical serialization of the
// checkpoint the session rests at, capturing it on demand (a
// serialisation and a SHA-256 nobody pays unless they ask). Images are
// canonical and a resting machine's state is a function of its anchor
// and barrier alone, so two sessions with equal histories — the same
// anchor, stepped to the same barrier, however sliced, retried or
// observed in between — have equal digests: the bit-identity a server
// asserts when it fails a slice over. Digests are history-sensitive
// beyond that: a machine restored from an image and one that ran
// through from the start rest in equivalent, not byte-equal, states.
func (s *Session) Digest() (ChunkKey, error) {
	if err := s.begin("Digest", StateQuiescent); err != nil {
		return ChunkKey{}, err
	}
	defer s.mu.Unlock()
	img, err := s.restingImage()
	if err != nil {
		return ChunkKey{}, err
	}
	if img == nil {
		return ChunkKey{}, &StateError{Op: "Digest", State: s.state,
			Msg: "no checkpoint to digest; Step first"}
	}
	raw, err := img.Bytes()
	if err != nil {
		return ChunkKey{}, err
	}
	return castore.KeyOf(raw), nil
}

// Close tears down the session's live machine, waiting until none of
// its goroutines remain, releases the in-memory run state and moves the
// session to the terminal Closed state. Closing an already-closed
// session is a no-op; closing mid-run fails with *StateError. The store
// side is untouched: a Suspended session's manifest chain survives its
// Session, and LastManifest remains readable for GC rooting or
// re-admission.
func (s *Session) Close() error {
	if !s.mu.TryLock() {
		return &StateError{Op: "Close", State: StateRunning}
	}
	defer s.mu.Unlock()
	s.teardown()
	s.state = StateClosed
	s.prog = nil
	s.final = nil
	s.current = nil
	s.log = nil
	s.prefix = nil
	return nil
}

// Phase reports the phase barrier the session rests at: 0 for a freshly
// bound program, -1 for a BindSuspended session that has not loaded its
// image yet.
func (s *Session) Phase() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// LastManifest returns the most recent manifest this session was
// suspended to (Suspend) or admitted from (BindSuspended), nil when
// none: the root to protect during store GC and the handle needed to
// re-admit the session elsewhere.
func (s *Session) LastManifest() *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.anchor
}

// --- checkpoint images --------------------------------------------------------

// Image is one captured checkpoint: everything a fresh process needs to
// continue the run bit-identically. Serialize with Bytes, reload with
// DecodeImage.
type Image struct {
	// Phase is the phase index the resumed run continues at.
	Phase int
	// RT is the runtime bookkeeping (allocator cursor, placements).
	RT core.RTState
	// User holds the sections Program.Snapshot contributed.
	User map[string][]byte
	// TracePrefix is the trace recorded up to the checkpoint (Record
	// mode only): the part of the log a resumed recording splices in
	// front of its own.
	TracePrefix *TraceLog
	// Kernel is the machine image: the whole space tree, counters and
	// device cursors.
	Kernel []byte
}

// ImageVersion is the session-image format version. The kernel section
// carries its own version (kernel.CheckpointVersion).
const ImageVersion = 1

const imageMagic = "DSES"

// ImageError reports a structurally invalid session image.
type ImageError struct {
	Offset int
	Msg    string
}

func (e *ImageError) Error() string {
	return fmt.Sprintf("repro: bad session image at byte %d: %s", e.Offset, e.Msg)
}

// Bytes serializes the image. The encoding is canonical: the same image
// state always produces the same bytes.
func (im *Image) Bytes() ([]byte, error) {
	var b []byte
	b = append(b, imageMagic...)
	b = append(b, ImageVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(im.Phase))

	b = binary.LittleEndian.AppendUint32(b, im.RT.Base)
	b = binary.LittleEndian.AppendUint64(b, im.RT.Size)
	b = binary.LittleEndian.AppendUint32(b, im.RT.Next)
	b = append(b, 0) // retired: the tree-join flag; ignored on decode
	ids := make([]int, 0, len(im.RT.Placed))
	for id := range im.RT.Placed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(id)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(im.RT.Placed[id])))
	}

	names := make([]string, 0, len(im.User))
	for n := range im.User {
		names = append(names, n)
	}
	sort.Strings(names)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, n := range names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(n)))
		b = append(b, n...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(im.User[n])))
		b = append(b, im.User[n]...)
	}

	if im.TracePrefix != nil {
		tb, err := json.Marshal(im.TracePrefix)
		if err != nil {
			return nil, err
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(tb)))
		b = append(b, tb...)
	} else {
		b = append(b, 0)
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(im.Kernel)))
	b = append(b, im.Kernel...)
	return imgenc.Seal(b), nil
}

// DecodeImage parses a serialized session image. Corrupt or truncated
// input returns *ImageError; a newer format version returns
// *kernel.ImageVersionError-style typed errors from the embedded
// sections or *ImageError here.
func DecodeImage(data []byte) (*Image, error) {
	r, err := imgenc.Open(data, imageMagic, ImageVersion,
		func(off int, msg string) error { return &ImageError{Offset: off, Msg: msg} },
		func(v byte) error {
			return &ImageError{Offset: 4, Msg: fmt.Sprintf("image version %d not supported (max %d)", v, ImageVersion)}
		})
	if err != nil {
		return nil, err
	}
	im := &Image{}
	im.Phase = int(r.U32())
	im.RT.Base = r.U32()
	im.RT.Size = r.U64()
	im.RT.Next = r.U32()
	r.U8() // retired tree-join flag
	for n := r.Count(16, "placement"); n > 0; n-- {
		id := int(r.I64())
		node := int(r.I64())
		if im.RT.Placed == nil {
			im.RT.Placed = make(map[int]int)
		}
		im.RT.Placed[id] = node
	}
	for n := r.Count(8, "section"); n > 0; n-- { // a section is at least its two length prefixes
		name := r.Str()
		body := r.Bytes()
		if r.Err != nil {
			break
		}
		if im.User == nil {
			im.User = make(map[string][]byte)
		}
		im.User[name] = append([]byte(nil), body...)
	}
	if r.U8() != 0 {
		tb := r.Bytes()
		if r.Err == nil {
			l, err := trace.Unmarshal(tb)
			if err != nil {
				return nil, &ImageError{Offset: r.Off, Msg: fmt.Sprintf("trace prefix: %v", err)}
			}
			im.TracePrefix = l
		}
	}
	im.Kernel = append([]byte(nil), r.Bytes()...)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return im, nil
}

// AttachSched rebuilds a deterministic scheduler from state exported by
// Sched.ExportState — the Program.Restore-side pair of stashing the
// scheduler in a checkpoint image (see SchedState).
func AttachSched(rt *RT, cfg SchedConfig, st SchedState) (*Sched, error) {
	return dsched.AttachState(rt, cfg, st)
}
