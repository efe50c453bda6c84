package repro

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// uprocTestRegistry registers "stamp": a child that writes its argument
// to the console and records it in a file, so its effects reach the
// root's replica only through reconciliation at wait.
func uprocTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("stamp", func(p *Proc) int {
		name := p.Args()[1]
		p.ConsoleWrite([]byte("stamp " + name + "\n"))
		if err := p.FS().WriteFile("/out-"+name, []byte("<"+name+">")); err != nil {
			return 1
		}
		return len(name)
	})
	return reg
}

// uprocTestProgram builds a three-phase process tree: phase 0 forks and
// collects two children, phase 1 forks a child whose argument is read
// back from a file phase 0's child wrote (cross-phase state flows through
// the restored file system, not Go variables), phase 2 summarizes.
func uprocTestProgram(reg *Registry) Program {
	return UprocProgram(reg, []string{"init"}, []UprocPhase{
		func(p *Proc) error {
			p.ConsoleWrite([]byte("phase0\n"))
			for _, name := range []string{"alpha", "beta"} {
				pid, err := p.ForkExec("stamp", name)
				if err != nil {
					return err
				}
				status, _, err := p.Waitpid(pid)
				if err != nil {
					return err
				}
				if status != len(name) {
					return fmt.Errorf("stamp %s exited %d", name, status)
				}
			}
			return nil
		},
		func(p *Proc) error {
			prev, err := p.FS().ReadFile("/out-alpha")
			if err != nil {
				return err
			}
			pid, err := p.ForkExec("stamp", "from"+string(prev[1:6]))
			if err != nil {
				return err
			}
			_, _, err = p.Waitpid(pid)
			return err
		},
		func(p *Proc) error {
			b, err := p.FS().ReadFile("/out-fromalpha")
			if err != nil {
				return err
			}
			p.ConsoleWrite([]byte("final " + string(b) + "\n"))
			return nil
		},
	})
}

// TestUprocProgramCheckpointEverywhere runs a process tree through the
// Session's phased machinery: for every barrier, suspend there, ship the
// image through bytes AND through a content-addressed store, resume in a
// fresh session, and require the machine result and the concatenated
// console output to be bit-identical to the uninterrupted run's.
func TestUprocProgramCheckpointEverywhere(t *testing.T) {
	reg := uprocTestRegistry()

	var full bytes.Buffer
	res, err := mustSession(t, WithConsole(nil, &full)).RunProgram(uprocTestProgram(reg))
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := keyOf(res, err)
	if full.Len() == 0 {
		t.Fatal("uninterrupted run produced no console output")
	}

	prog := uprocTestProgram(reg)
	for k := 1; k <= prog.Phases; k++ {
		var outA, outB bytes.Buffer
		store := NewMemStore()
		m, err := suspendAt(t, []SessionOption{WithConsole(nil, &outA)}, store, uprocTestProgram(reg), k)
		if err != nil {
			t.Fatalf("barrier %d: %v", k, err)
		}
		_, res, err := shipped(t, []SessionOption{WithConsole(nil, &outB)}, store, m, uprocTestProgram(reg))
		if got := keyOf(res, err); got != want {
			t.Fatalf("barrier %d: resumed result %+v, uninterrupted %+v", k, got, want)
		}
		joined := append(append([]byte(nil), outA.Bytes()...), outB.Bytes()...)
		if !bytes.Equal(joined, full.Bytes()) {
			t.Fatalf("barrier %d: console output %q + %q != uninterrupted %q",
				k, outA.Bytes(), outB.Bytes(), full.Bytes())
		}
	}
}

// TestUprocProgramSuspendBindSuspended suspends a process tree into a
// DirStore and resumes from the manifest in a fresh session — the uproc
// version of the store-backed lifecycle.
func TestUprocProgramSuspendBindSuspended(t *testing.T) {
	reg := uprocTestRegistry()

	var full bytes.Buffer
	res, err := mustSession(t, WithConsole(nil, &full)).RunProgram(uprocTestProgram(reg))
	if err != nil {
		t.Fatal(err)
	}
	want := keyOf(res, err)

	store, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var outA bytes.Buffer
	m, err := suspendAt(t, []SessionOption{WithConsole(nil, &outA)}, store, uprocTestProgram(reg), 2)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := LoadManifest(store, m.Key())
	if err != nil {
		t.Fatal(err)
	}
	var outB bytes.Buffer
	_, res, err = resumeFrom(t, []SessionOption{WithConsole(nil, &outB)}, store, m2, uprocTestProgram(reg))
	if got := keyOf(res, err); got != want {
		t.Fatalf("resumed result %+v, uninterrupted %+v", got, want)
	}
	joined := append(append([]byte(nil), outA.Bytes()...), outB.Bytes()...)
	if !bytes.Equal(joined, full.Bytes()) {
		t.Fatalf("console output %q + %q != uninterrupted %q", outA.Bytes(), outB.Bytes(), full.Bytes())
	}
}

// TestUprocCheckpointRejectsUncollectedChildren: a phase that returns
// with a forked-but-unwaited child cannot reach a checkpoint barrier —
// the child's Go-side closure cannot cross an image — and the failure is
// a typed *UprocStateError, not a panic.
func TestUprocCheckpointRejectsUncollectedChildren(t *testing.T) {
	reg := uprocTestRegistry()
	prog := UprocProgram(reg, []string{"init"}, []UprocPhase{
		func(p *Proc) error {
			_, err := p.ForkExec("stamp", "orphan")
			return err // returns with the child uncollected
		},
	})
	_, err := mustSession(t).RunToCheckpoint(prog, 1)
	var se *UprocStateError
	if !errors.As(err, &se) {
		t.Fatalf("RunToCheckpoint with uncollected child: %v, want *UprocStateError", err)
	}
}

// TestUprocResumeRejectsForeignImage: resuming a UprocProgram from an
// image whose uproc section is missing fails typed instead of attaching
// to memory that holds no file system.
func TestUprocResumeRejectsForeignImage(t *testing.T) {
	reg := uprocTestRegistry()
	img, err := mustSession(t).RunToCheckpoint(uprocTestProgram(reg), 1)
	if err != nil {
		t.Fatal(err)
	}
	img = roundTripImage(t, img)
	delete(img.User, "uproc")
	store, m := roundTripStore(t, img)
	_, _, err = resumeFrom(t, nil, store, m, uprocTestProgram(reg))
	var se *UprocStateError
	if !errors.As(err, &se) {
		t.Fatalf("resume without uproc section: %v, want *UprocStateError", err)
	}
}
