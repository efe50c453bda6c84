package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

// The ckpt subcommand runs a shell script as a checkpointable phased
// program — one phase per line — against a content-addressed store on
// disk:
//
//	echo 'write f hello' | detshell ckpt save DIR
//	echo 'cat f'         | detshell ckpt resume DIR
//
// save binds the script to a session, steps it over every line and
// suspends the whole machine (process tree, file system, console
// cursors) into DIR, pointing the store's MANIFEST ref (the file
// DIR/MANIFEST) at the manifest. resume admits that exact machine with
// BindSuspended, steps it over the new script lines and — when there are
// new lines — suspends it again, chained onto the old manifest, so
// repeated resumes build an incremental image chain in the same store.

// headRef is the store ref that names the current chain head. Being a
// ref, it is also what keeps the chain's chunks through a collection of
// DIR, whoever runs it.
const headRef = "MANIFEST"

func ckptMain(args []string) int {
	if len(args) != 2 || (args[0] != "save" && args[0] != "resume") {
		fmt.Fprintln(os.Stderr, "usage: detshell ckpt save DIR | detshell ckpt resume DIR")
		return 2
	}
	store, err := repro.OpenDirStore(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "detshell: ckpt:", err)
		return 1
	}
	switch args[0] {
	case "save":
		err = ckptSave(store, os.Stdin, os.Stdout)
	case "resume":
		err = ckptResume(store, os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "detshell: ckpt:", err)
		return 1
	}
	return 0
}

// ckptSave runs the script from r as phases of a fresh machine and
// suspends it at the barrier after the last line.
func ckptSave(store repro.BlobStore, r io.Reader, out io.Writer) error {
	lines := scriptLines(r)
	if len(lines) == 0 {
		return fmt.Errorf("empty script: nothing to checkpoint")
	}
	s, err := repro.NewSession(shellSessionOpts(out)...)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Bind(shellProgram(0, lines)); err != nil {
		return err
	}
	m, err := runAndSuspend(s, store, len(lines))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "detshell: saved checkpoint %s (%d phases, seq %d)\n",
		m.Key(), len(lines), m.Seq())
	return nil
}

// ckptResume continues the machine the store's head ref names, runs any
// new script lines from r as further phases, and (when there are new
// lines) chains a fresh checkpoint onto the old one. A head that is not
// a key is *repro.RefError; one naming a manifest the store lacks
// unwraps to *repro.ChunkMissingError.
func ckptResume(store repro.BlobStore, r io.Reader, out io.Writer) error {
	key, ok, err := store.Ref(headRef)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no %s ref: nothing was saved here", headRef)
	}
	m, err := repro.LoadManifest(store, key)
	if err != nil {
		return fmt.Errorf("%s ref: %w", headRef, err)
	}
	// The phase the image resumes at tells us how many script lines the
	// saved run already executed.
	img, err := repro.LoadImage(store, m)
	if err != nil {
		return err
	}
	lines := scriptLines(r)
	if len(lines) == 0 {
		fmt.Fprintf(os.Stderr, "detshell: resumed checkpoint %s (no new phases)\n", m.Key())
		return nil
	}
	s, err := repro.NewSession(shellSessionOpts(out)...)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.BindSuspended(shellProgram(img.Phase, lines), store, m); err != nil {
		return err
	}
	m2, err := runAndSuspend(s, store, len(lines))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "detshell: resumed %s, saved %s (%d phases, seq %d)\n",
		m.Key(), m2.Key(), img.Phase+len(lines), m2.Seq())
	return nil
}

// runAndSuspend steps a bound shell session over its n new lines,
// suspends it into store at the barrier after them, and points the head
// ref at the manifest — chained onto the one the session was admitted
// from, if any.
func runAndSuspend(s *repro.Session, store repro.BlobStore, n int) (*repro.Manifest, error) {
	if _, err := s.Step(n); err != nil {
		return nil, err
	}
	m, err := s.Suspend(store)
	if err != nil {
		return nil, err
	}
	return m, store.SetRef(headRef, m.Key())
}

// shellProgram builds the phased form of the shell: phases [0, done) ran
// before the checkpoint being resumed (they are never invoked again);
// each later phase executes one script line through the ordinary command
// interpreter. A shell session is open-ended, so one trailing phase
// stands for the next script's lines: it is never run, and a Step over
// the supplied lines parks at the barrier before it.
func shellProgram(done int, lines []string) repro.Program {
	reg := repro.NewRegistry()
	registerCommands(reg)
	phases := make([]repro.UprocPhase, 0, done+len(lines)+1)
	for i := 0; i < done; i++ {
		i := i
		phases = append(phases, func(p *repro.Proc) error {
			return fmt.Errorf("phase %d already ran before the checkpoint", i)
		})
	}
	for _, line := range lines {
		line := line
		phases = append(phases, func(p *repro.Proc) error {
			runCommand(p, strings.Fields(line)) // shell semantics: a failing command is not fatal
			return nil
		})
	}
	phases = append(phases, func(p *repro.Proc) error {
		return fmt.Errorf("phase %d stands for the next script's lines", done+len(lines))
	})
	return repro.UprocProgram(reg, []string{"sh"}, phases)
}

// shellSessionOpts is the session configuration both save and resume use
// (resume must match the machine shape the image was captured under).
func shellSessionOpts(out io.Writer) []repro.SessionOption {
	return []repro.SessionOption{
		repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4}),
		repro.WithConsole(nil, out),
	}
}

// scriptLines reads a shell script: blank lines and comments are
// dropped, and an exit command ends the script.
func scriptLines(r io.Reader) []string {
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Fields(line)[0] == "exit" {
			break
		}
		lines = append(lines, line)
	}
	return lines
}
