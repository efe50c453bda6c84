package repro

import (
	"encoding/json"

	"repro/internal/uproc"
)

// uprocSection names the image section UprocProgram stashes the init
// process's Go-side state under.
const uprocSection = "uproc"

// UprocPhase is one barrier-delimited step of a process tree run through
// a Session: fork, exec, wait and perform console I/O freely, but return
// with every child collected — the checkpoint export refuses a barrier
// with uncollected children, because their Go-side closures cannot cross
// an image.
type UprocPhase func(p *Proc) error

// UprocProgram adapts a Unix process tree (internal/uproc) to the
// Session's phased Program form, making process-tree runs checkpointable
// with the same machinery as shared-memory programs: Bind, Step,
// Suspend and BindSuspended work on the result as on any Program.
//
// A fresh run creates the init process (formatting the file system and
// console files) in its first phase; a resumed run reattaches it
// over the restored space tree, whose memory already holds the file
// system replica and console files. Only the init process's counters
// (PID/ref allocators, console cursors, pipe serial) cross the image,
// as a JSON "uproc" section. Failures on this path are typed
// (*UprocStateError), never panics.
func UprocProgram(reg *Registry, args []string, phases []UprocPhase) Program {
	var (
		proc  *Proc
		state uproc.InitState
	)
	return Program{
		Phases: len(phases),
		Phase: func(rt *RT, i int) error {
			if i == 0 {
				// Phase 0 is only ever reached on a fresh start (resumes
				// begin after barrier >= 1 and go through Restore), so
				// create the init process here — unconditionally, in case
				// this Program value already ran once.
				p, err := uproc.NewInit(rt.Env(), reg, args)
				if err != nil {
					return err
				}
				proc = p
			}
			if err := phases[i](proc); err != nil {
				return err
			}
			// Flush buffered console output at every barrier: a capture
			// here must record cursors with nothing pending, or output
			// that straddled the checkpoint would be emitted again by
			// every resume. Both the checkpointing and the uninterrupted
			// run flush at the same points, preserving bit-identity.
			proc.Sync()
			// Export eagerly so a capture at this barrier (Snapshot cannot
			// fail) sees a state already validated as quiescent.
			st, err := proc.ExportState()
			if err != nil {
				return err
			}
			state = st
			return nil
		},
		Result: func(rt *RT) uint64 {
			if proc != nil {
				proc.Sync() // final flush of buffered console output
			}
			return 0
		},
		Snapshot: func(rt *RT) map[string][]byte {
			b, err := json.Marshal(state)
			if err != nil {
				// InitState is plain data; Marshal cannot fail on it.
				panic(err)
			}
			return map[string][]byte{uprocSection: b}
		},
		Restore: func(rt *RT, sections map[string][]byte) error {
			raw, ok := sections[uprocSection]
			if !ok {
				return &uproc.StateError{Msg: "image has no uproc section (not captured by a UprocProgram run)"}
			}
			var st uproc.InitState
			if err := json.Unmarshal(raw, &st); err != nil {
				return &uproc.StateError{Msg: "decode uproc section: " + err.Error()}
			}
			p, err := uproc.AttachInit(rt.Env(), reg, args, st)
			if err != nil {
				return err
			}
			proc, state = p, st
			return nil
		},
	}
}
