package uproc

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/kernel"
)

// This file is the checkpointable entry into the process runtime: instead
// of Boot's run-to-completion closure, a phased program creates the init
// process with NewInit, runs barrier-delimited steps against it, and at
// any barrier exports the Go-side bookkeeping with ExportState so a
// session image can carry it. AttachInit is the resume-side pair: it
// rebuilds the init Proc over restored memory (the file system replica,
// console files and all child spaces live in the space tree and travel
// with the kernel image; only these counters live on the Go side).
//
// Everything in this path reports problems as typed errors — a
// checkpoint taken at the wrong moment is a caller mistake to handle,
// not a crash.

// InitState is the Go-side state of the init process that must cross a
// checkpoint image: counters and cursors that are not stored in the
// space tree. It is JSON-serializable and canonical (no maps).
type InitState struct {
	// NextPID / NextRef / FreeRefs are the PID and child-ref allocators.
	NextPID  int
	NextRef  uint64
	FreeRefs []uint64 `json:",omitempty"`
	// InOff / OutOff / InEOF are the console cursors: input consumed,
	// output pumped to the device, input exhausted.
	InOff  int
	OutOff int
	InEOF  bool
	// PipeSerial is the deterministic pipe-name counter.
	PipeSerial int
}

// StateError reports init-process state that cannot cross a checkpoint
// image, or an image section that does not describe one.
type StateError struct{ Msg string }

func (e *StateError) Error() string { return "uproc: checkpoint state: " + e.Msg }

// NewInit creates the init process for a fresh machine: it formats the
// root file system image (Format maps its own pages) and creates the
// console special files (§4.3), reporting failures as typed errors and
// leaving running the program to the caller — Boot's one run, or a
// session's phases. reg may be nil for a tree that only forks Go
// functions.
func NewInit(env *kernel.Env, reg *Registry, args []string) (*Proc, error) {
	if env == nil {
		return nil, &StateError{Msg: "nil environment"}
	}
	if reg == nil {
		reg = NewRegistry()
	}
	fsys := fs.Format(env, FSBase, FSSize)
	for _, name := range []string{ConsoleIn, ConsoleOut} {
		if err := fsys.CreateAppendOnly(name); err != nil {
			return nil, &StateError{Msg: fmt.Sprintf("create %s: %v", name, err)}
		}
	}
	return &Proc{
		env:      env,
		fsys:     fsys,
		registry: reg,
		args:     args,
		root:     true,
		children: make(map[int]*childState),
	}, nil
}

// AttachInit rebuilds the init process over restored memory: the file
// system replica and console files already exist in the space (they came
// back with the kernel image), so it attaches rather than formats, and
// restores the exported counters.
func AttachInit(env *kernel.Env, reg *Registry, args []string, st InitState) (*Proc, error) {
	if env == nil {
		return nil, &StateError{Msg: "nil environment"}
	}
	if reg == nil {
		reg = NewRegistry()
	}
	// AttachRestored performs no validating reads: restore must cost the
	// machine nothing (the resumed run's counters must equal the
	// uninterrupted run's), and the image's integrity was established by
	// the checkpoint CRC. The handle's lookup cache starts cold, which
	// costs nothing: the fs rebuilds it through uncharged reads, so the
	// resumed run's lookups are charged what the uninterrupted run's were.
	fsys := fs.AttachRestored(env, FSBase)
	return &Proc{
		env:        env,
		fsys:       fsys,
		registry:   reg,
		args:       args,
		root:       true,
		nextPID:    st.NextPID,
		nextRef:    st.NextRef,
		freeRefs:   append([]uint64(nil), st.FreeRefs...),
		children:   make(map[int]*childState),
		inOff:      st.InOff,
		outOff:     st.OutOff,
		inEOF:      st.InEOF,
		pipeSerial: st.PipeSerial,
	}, nil
}

// ExportState captures the init process's Go-side bookkeeping for a
// checkpoint image. It must be called at a quiescent barrier: children
// hold Go-side state (their program closures and service loops) that
// cannot cross an image, so exporting with uncollected children or
// redirected standard streams fails with a *StateError instead of
// silently producing an image that cannot resume.
func (p *Proc) ExportState() (InitState, error) {
	if !p.root {
		return InitState{}, &StateError{Msg: "only the init process checkpoints"}
	}
	if n := len(p.children); n > 0 {
		return InitState{}, &StateError{Msg: fmt.Sprintf(
			"%d uncollected children; wait for them before the checkpoint barrier", n)}
	}
	if p.stdinFile != "" || p.outFile != "" {
		return InitState{}, &StateError{Msg: "standard streams are redirected"}
	}
	return InitState{
		NextPID:    p.nextPID,
		NextRef:    p.nextRef,
		FreeRefs:   append([]uint64(nil), p.freeRefs...),
		InOff:      p.inOff,
		OutOff:     p.outOff,
		InEOF:      p.inEOF,
		PipeSerial: p.pipeSerial,
	}, nil
}
