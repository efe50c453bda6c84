// Package uproc emulates Unix processes on Determinator's kernel API, as
// the paper's user-level runtime does (§4.1–4.3): fork/exec/wait over
// spaces, process-local PID namespaces, a replicated shared file system,
// and console I/O expressed as append-only file synchronization flowing
// through the space hierarchy to the root, which alone talks to devices.
//
// Deviations from real Unix are the ones the paper makes deliberately:
// PIDs are meaningless outside the owning process; wait() returns the
// earliest-forked uncollected child, not the first to finish (determinism
// forbids learning completion order); and all I/O is buffered in each
// process's file system replica until a synchronization point.
//
// One Go-specific substitution: fork takes the child's function
// explicitly (Unix's "fork returns twice" cannot be expressed over Go
// stacks), and exec loads programs from a registry of Go functions
// standing in for executable images. The file system image is inherited
// through the kernel's copy-on-write space copy exactly as in the paper.
package uproc

import (
	"errors"
	"fmt"

	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Address-space layout for processes.
const (
	// FSBase/FSSize locate the file system replica in every process.
	FSBase vm.Addr = fs.DefaultBase
	FSSize uint64  = fs.DefaultSize
	// scratchBase is where a parent temporarily copies a child's file
	// system image during reconciliation.
	scratchBase vm.Addr = 0x9000_0000

	// Console special files (§4.3). They hold real data in each replica:
	// the input file accumulates everything the process ever received,
	// the output file everything it wrote.
	ConsoleIn  = "#console-in"
	ConsoleOut = "#console-out"
	// consoleEOF exists once the root has exhausted the machine's input.
	consoleEOF = "#console-eof"
)

// Service request codes a child passes in its Ret register when it stops
// to ask its parent for service.
const (
	reqNone  = 0
	reqInput = 1 // need more console input
	reqSync  = 2 // fsync: push output toward the root now
)

// Program is the body of a process: the stand-in for an executable image.
// It returns the process exit status.
type Program func(p *Proc) int

// Registry maps program names to images, playing the role of the file
// system's executable files for exec.
type Registry struct {
	progs map[string]Program
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry { return &Registry{progs: make(map[string]Program)} }

// Register adds a program under name, replacing any previous image.
func (r *Registry) Register(name string, prog Program) {
	r.progs[name] = prog
}

// Lookup finds a program image.
func (r *Registry) Lookup(name string) (Program, bool) {
	p, ok := r.progs[name]
	return p, ok
}

// Proc is the user-level runtime state of one process. It lives in the
// process's own space; the kernel knows nothing of processes.
type Proc struct {
	env      *kernel.Env
	fsys     *fs.FS
	registry *Registry
	args     []string
	root     bool

	// Process-local PID namespace (§2.4/§4.1): PIDs index this process's
	// children only and may numerically collide with other processes'.
	nextPID   int
	nextRef   uint64
	freeRefs  []uint64
	children  map[int]*childState
	forkOrder []int // uncollected children, earliest first

	// Console positions and redirections.
	inOff      int // bytes of standard input already consumed
	outOff     int // root only: bytes of ConsoleOut already pumped to device
	inEOF      bool
	stdinFile  string // "" = console input stream; else a pipe/regular file
	outFile    string // "" = console output stream; else a capture file
	pipeSerial int    // deterministic pipe-name counter
}

type childState struct {
	ref   uint64
	quota int64
}

// Errors.
var (
	ErrNoChild    = errors.New("uproc: no such child")
	ErrNoChildren = errors.New("uproc: no children to wait for")
	ErrNoProgram  = errors.New("uproc: no such program")
)

// ExitError reports a child that crashed rather than exiting.
type ExitError struct {
	PID    int
	Status kernel.Status
	Cause  error
}

func (e *ExitError) Error() string {
	return fmt.Sprintf("uproc: child %d crashed (%v): %v", e.PID, e.Status, e.Cause)
}

// execSignal unwinds a program that called Exec.
type execSignal struct {
	prog Program
	name string
	args []string
}

// Env exposes the underlying kernel environment.
func (p *Proc) Env() *kernel.Env { return p.env }

// FS exposes the process's file system replica.
func (p *Proc) FS() *fs.FS { return p.fsys }

// Args returns the argument vector the process was started with.
func (p *Proc) Args() []string { return p.args }

// allocRef reserves a child space number, reusing freed slots — the
// "free list of child spaces" of §4.1. Slot 0 is reserved (the paper
// keeps it for exec's program-loading child).
func (p *Proc) allocRef() uint64 {
	if n := len(p.freeRefs); n > 0 {
		ref := p.freeRefs[n-1]
		p.freeRefs = p.freeRefs[:n-1]
		return ref
	}
	p.nextRef++
	return p.nextRef
}

// Fork creates a child process running prog with the given argv. The
// child inherits a copy-on-write copy of the parent's entire memory —
// including the file system image — and a PID local to this process.
func (p *Proc) Fork(prog Program, args ...string) (int, error) {
	return p.forkWith(prog, "", 0, args)
}

// ForkQuota is Fork with a deterministic CPU quota: the child (by
// itself) may execute at most quota instructions; exceeding it surfaces
// from Waitpid as a *QuotaError. This is the paper's §3.2 use of
// instruction limits for "deterministic time quotas on untrusted
// processes" — the budget is logical, so enforcement is repeatable.
func (p *Proc) ForkQuota(prog Program, quota int64, args ...string) (int, error) {
	return p.forkWith(prog, "", quota, args)
}

// forkWith is the common fork path: stdin selects the child's standard
// input file ("" = console stream), quota arms an instruction limit.
func (p *Proc) forkWith(prog Program, stdin string, quota int64, args []string) (int, error) {
	ref := p.allocRef()
	inOff := 0
	if stdin == "" {
		inOff = p.inOff // inherit the console read position
	}
	reg := p.registry
	entry := func(env *kernel.Env) {
		child := &Proc{
			env:       env,
			registry:  reg,
			args:      args,
			nextPID:   0,
			children:  make(map[int]*childState),
			inOff:     inOff,
			stdinFile: stdin,
		}
		var err error
		child.fsys, err = fs.Attach(env, FSBase, FSSize)
		if err != nil {
			panic(err)
		}
		child.fsys.StampFork()
		env.SetRet(uint64(child.runToExit(prog)))
	}
	err := p.env.Put(ref, kernel.PutOpts{
		Regs:    &kernel.Regs{Entry: entry},
		CopyAll: true,
		Start:   true,
		Limit:   quota,
	})
	if err != nil {
		return 0, err
	}
	p.nextPID++
	pid := p.nextPID
	p.children[pid] = &childState{ref: ref, quota: quota}
	p.forkOrder = append(p.forkOrder, pid)
	return pid, nil
}

// QuotaError reports a child that exhausted its instruction quota.
type QuotaError struct {
	PID   int
	Quota int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("uproc: child %d exceeded its %d-instruction quota", e.PID, e.Quota)
}

// ForkExec looks a program up in the registry and forks it: the
// fork-then-exec idiom in one step.
func (p *Proc) ForkExec(name string, args ...string) (int, error) {
	prog, ok := p.registry.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoProgram, name)
	}
	return p.Fork(prog, append([]string{name}, args...)...)
}

// Exec replaces the current program with the named one. On success it
// never returns: the current program unwinds and the new image runs in
// the same space, inheriting the file system and PID namespace (§4.1).
func (p *Proc) Exec(name string, args ...string) error {
	prog, ok := p.registry.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoProgram, name)
	}
	panic(&execSignal{prog: prog, name: name, args: append([]string{name}, args...)})
}

// runToExit runs prog (following exec chains) to its exit status.
func (p *Proc) runToExit(prog Program) int {
	for {
		status, ex := p.runOnce(prog)
		if ex == nil {
			return status
		}
		p.args = ex.args
		prog = ex.prog
	}
}

func (p *Proc) runOnce(prog Program) (status int, ex *execSignal) {
	defer func() {
		if r := recover(); r != nil {
			if sig, ok := r.(*execSignal); ok {
				ex = sig
				return
			}
			panic(r)
		}
	}()
	return prog(p), nil
}

// Waitpid waits for the specific child to exit, servicing any I/O
// requests it makes along the way, reconciles the child's file system
// into this process's replica, and returns the exit status plus any file
// conflicts the reconciliation detected.
func (p *Proc) Waitpid(pid int) (int, []fs.Conflict, error) {
	cs, ok := p.children[pid]
	if !ok {
		return 0, nil, fmt.Errorf("%w: pid %d", ErrNoChild, pid)
	}
	for {
		info, err := p.env.Get(cs.ref, kernel.GetOpts{Regs: true})
		if err != nil {
			return 0, nil, err
		}
		switch info.Status {
		case kernel.StatusHalted:
			conflicts, err := p.reconcileChild(cs.ref)
			p.releaseChild(pid, cs)
			return int(info.Regs.Ret), conflicts, err
		case kernel.StatusRet:
			if err := p.serviceChild(cs.ref, int(info.Regs.Ret)); err != nil {
				return 0, nil, err
			}
		case kernel.StatusInsnLimit:
			if cs.quota > 0 {
				// Quota exhausted: reclaim the child without collecting
				// its (partial) file system state.
				p.releaseChild(pid, cs)
				return 0, nil, &QuotaError{PID: pid, Quota: cs.quota}
			}
			if err := p.env.Put(cs.ref, kernel.PutOpts{Start: true}); err != nil {
				return 0, nil, err
			}
		default:
			p.releaseChild(pid, cs)
			return 0, nil, &ExitError{PID: pid, Status: info.Status, Cause: info.Err}
		}
	}
}

// Wait waits for a child in the deterministic order of §4.1: the
// earliest-forked child whose status has not yet been collected —
// regardless of which child actually finishes first, since learning that
// would require nondeterministic timing information.
func (p *Proc) Wait() (pid, status int, conflicts []fs.Conflict, err error) {
	if len(p.forkOrder) == 0 {
		return 0, 0, nil, ErrNoChildren
	}
	pid = p.forkOrder[0]
	status, conflicts, err = p.Waitpid(pid)
	return pid, status, conflicts, err
}

func (p *Proc) releaseChild(pid int, cs *childState) {
	delete(p.children, pid)
	p.freeRefs = append(p.freeRefs, cs.ref)
	for i, q := range p.forkOrder {
		if q == pid {
			p.forkOrder = append(p.forkOrder[:i], p.forkOrder[i+1:]...)
			break
		}
	}
}

// reconcileChild pulls the child's file system image into the scratch
// area and folds its changes into this process's replica (§4.2).
func (p *Proc) reconcileChild(ref uint64) ([]fs.Conflict, error) {
	p.env.SetPerm(scratchBase, FSSize, vm.PermRW)
	if _, err := p.env.Get(ref, kernel.GetOpts{
		Copy: &kernel.CopyRange{Src: FSBase, Dst: scratchBase, Size: FSSize},
	}); err != nil {
		return nil, err
	}
	img, err := fs.Attach(p.env, scratchBase, FSSize)
	if err != nil {
		return nil, fmt.Errorf("uproc: child image corrupt: %w", err)
	}
	return p.fsys.ReconcileFrom(img)
}

// serviceChild handles a child that stopped with a service request:
// a two-way file system synchronization (child changes up, parent state —
// including any new console input — down), then resume. If the child
// wants input the parent does not have, the request is forwarded up the
// hierarchy (§4.3), ultimately to the root, which pumps the device.
func (p *Proc) serviceChild(ref uint64, req int) error {
	if _, err := p.reconcileChild(ref); err != nil {
		return err
	}
	if req == reqInput || req == reqSync {
		if p.root {
			p.pumpConsole()
		} else {
			// Forward toward the root: sync ourselves with our parent.
			p.syncUp(req)
		}
	}
	// Push the merged image down to the child; it re-stamps its fork
	// versions when it wakes.
	if err := p.env.Put(ref, kernel.PutOpts{
		Copy: &kernel.CopyRange{Src: FSBase, Dst: FSBase, Size: FSSize},
	}); err != nil {
		return err
	}
	return p.env.Put(ref, kernel.PutOpts{Start: true})
}

// syncUp stops this process with a service request so its parent
// performs a two-way synchronization, then re-stamps the replica.
func (p *Proc) syncUp(req int) {
	p.env.SetRet(uint64(req))
	p.env.Ret()
	p.fsys.StampFork()
}
