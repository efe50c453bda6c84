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
// save runs the script and checkpoints the whole machine (process tree,
// file system, console cursors) into DIR and points the store's MANIFEST
// ref (the file DIR/MANIFEST) at the manifest. resume continues that
// exact machine, feeds it the new script lines, and — when there are new
// lines — saves a fresh checkpoint chained onto the old one, so repeated
// resumes build an incremental image chain in the same store.

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
// checkpoints at the final barrier.
func ckptSave(store repro.BlobStore, r io.Reader, out io.Writer) error {
	lines := scriptLines(r)
	if len(lines) == 0 {
		return fmt.Errorf("empty script: nothing to checkpoint")
	}
	prog := shellProgram(0, lines)
	s, err := repro.NewSession(shellSessionOpts(out)...)
	if err != nil {
		return err
	}
	if _, err := s.RunToCheckpoint(prog, prog.Phases); err != nil {
		return err
	}
	m, err := s.SaveTo(store)
	if err != nil {
		return err
	}
	if err := store.SetRef(headRef, m.Key()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "detshell: saved checkpoint %s (%d phases, seq %d)\n",
		m.Key(), prog.Phases, m.Seq())
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
	done := img.Phase

	lines := scriptLines(r)
	prog := shellProgram(done, lines)
	opts := shellSessionOpts(out)
	if len(lines) > 0 {
		opts = append(opts, repro.WithCheckpointAfter(prog.Phases))
	}
	s, err := repro.NewSession(opts...)
	if err != nil {
		return err
	}
	if _, err := s.ResumeFrom(store, m, prog); err != nil {
		return err
	}
	if len(lines) == 0 {
		fmt.Fprintf(os.Stderr, "detshell: resumed checkpoint %s (no new phases)\n", m.Key())
		return nil
	}
	m2, err := s.SaveTo(store)
	if err != nil {
		return err
	}
	if err := store.SetRef(headRef, m2.Key()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "detshell: resumed %s, saved %s (%d phases, seq %d)\n",
		m.Key(), m2.Key(), prog.Phases, m2.Seq())
	return nil
}

// shellProgram builds the phased form of the shell: phases [0, done) ran
// before the checkpoint being resumed (they are never invoked again);
// each later phase executes one script line through the ordinary command
// interpreter.
func shellProgram(done int, lines []string) repro.Program {
	reg := repro.NewRegistry()
	registerCommands(reg)
	phases := make([]repro.UprocPhase, 0, done+len(lines))
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
