package detmake

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fs"
	"repro/internal/kernel"
)

// ActionFunc is the body of a build action. It runs inside the task's
// private space over a hermetic file system image and must be a pure
// function of the declared inputs and Args — the kernel enforces the
// space isolation, the TaskCtx enforces the file view, and the cache
// key assumes both.
type ActionFunc func(c *TaskCtx) error

// Actions maps action names to bodies, playing the role uproc's
// program registry plays for executables.
type Actions struct {
	m map[string]ActionFunc
}

// NewActions returns an empty registry.
func NewActions() *Actions { return &Actions{m: make(map[string]ActionFunc)} }

// Register adds an action under name, replacing any previous body.
func (a *Actions) Register(name string, fn ActionFunc) { a.m[name] = fn }

// Lookup finds an action body.
func (a *Actions) Lookup(name string) (ActionFunc, bool) {
	fn, ok := a.m[name]
	return fn, ok
}

// Names lists registered actions in sorted (deterministic) order.
func (a *Actions) Names() []string {
	out := make([]string, 0, len(a.m))
	for n := range a.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Runtime task errors.

// UndeclaredInputError reports a task that read a path which exists in
// the build tree but is not among its declared inputs — a hermeticity
// violation that would make the cache key unsound if allowed through.
type UndeclaredInputError struct {
	Task string
	Path string
}

func (e *UndeclaredInputError) Error() string {
	return fmt.Sprintf("detmake: task %s read undeclared input %q", e.Task, e.Path)
}

// TaskError reports a task that failed: its action body returned an
// error or panicked, its space faulted, or what it left for the root was
// not a well-formed result message. Err unwraps to the underlying cause —
// in particular errors.Is(err, fs.ErrNoSpace) holds when the task's
// hermetic image filled up, under the action or already under its
// declared inputs.
type TaskError struct {
	Task string
	Err  error
}

func (e *TaskError) Error() string { return fmt.Sprintf("detmake: task %s failed: %v", e.Task, e.Err) }
func (e *TaskError) Unwrap() error { return e.Err }

// MissingOutputError reports a task that completed without writing one
// of its declared outputs.
type MissingOutputError struct {
	Task string
	Path string
}

func (e *MissingOutputError) Error() string {
	return fmt.Sprintf("detmake: task %s did not write declared output %q", e.Task, e.Path)
}

// OutputConflictError reports Build's validation finding two tasks
// whose declared outputs clash in type: one task's output file is
// another's output directory, at Path. Tasks holds the pair in sorted
// ID order, so attribution is stable. (Two tasks declaring the very
// same path is NewGraph's DuplicateOutputError.)
type OutputConflictError struct {
	Path  string
	Tasks [2]string
}

func (e *OutputConflictError) Error() string {
	return fmt.Sprintf("detmake: tasks %s and %s wrote conflicting state at %q", e.Tasks[0], e.Tasks[1], e.Path)
}

// TaskCtx is an action's window onto its hermetic world, an image the
// task's own space formats and fills before the action runs: the
// declared inputs (readable), the declared outputs (writable, and read
// back out by the task when the action returns), and scratch space — any
// other path, which lives and dies with the task's space whatever it is
// named. Reads outside the declared inputs are the one
// determinism hazard the kernel cannot see — the path exists in the
// wider build tree but not in this image — so the context detects them
// and fails the task typed, whether or not the action swallows the
// error.
type TaskCtx struct {
	task      *Task
	img       *fs.FS
	env       *kernel.Env
	inputs    map[string]bool
	tree      map[string]bool // live master paths at wave start
	violation *UndeclaredInputError
}

// TaskID returns the running task's ID.
func (c *TaskCtx) TaskID() string { return c.task.ID }

// Args returns the task's action arguments.
func (c *TaskCtx) Args() []string { return c.task.Args }

// Inputs returns the declared input paths in declaration order.
func (c *TaskCtx) Inputs() []string { return append([]string{}, c.task.Inputs...) }

// Outputs returns the declared output paths in declaration order.
func (c *TaskCtx) Outputs() []string { return append([]string{}, c.task.Outputs...) }

// Tick charges n instructions of modeled work to the task's space, the
// deterministic stand-in for compute cost (a compiler action charges
// for the bytes it compiles, say).
func (c *TaskCtx) Tick(n int64) { c.env.Tick(n) }

// ReadFile returns a file from the hermetic image: a declared input,
// or something the action itself wrote earlier. A read of a path that
// exists in the build tree but was not declared fails typed and marks
// the task violated.
func (c *TaskCtx) ReadFile(path string) ([]byte, error) {
	b, err := c.img.ReadFile(path)
	if err == nil {
		return b, nil
	}
	if errors.Is(err, fs.ErrNotFound) && c.tree[path] && !c.inputs[path] {
		v := &UndeclaredInputError{Task: c.task.ID, Path: path}
		if c.violation == nil {
			c.violation = v
		}
		return nil, v
	}
	return nil, err
}

// WriteFile writes a file in the hermetic image, creating parent
// directories as needed. Anything that is not a declared output is
// scratch: the build never reads it. Declared inputs are read-only:
// the path belongs to its producer (or the sources), so a write to it
// could never be committed — it is refused rather than silently
// dropped.
func (c *TaskCtx) WriteFile(path string, b []byte) error {
	if c.inputs[path] {
		return fmt.Errorf("detmake: task %s wrote declared input %q: inputs are read-only", c.task.ID, path)
	}
	return c.img.WriteFileAll(path, b)
}

// DefaultActions returns the built-in action set shared by the command
// line tool, the bench workloads and the tests:
//
//	gen      write Args joined by spaces to the single output
//	concat   concatenate inputs (declaration order) into the output
//	upper    uppercase the single input into the single output
//	derive   sha256 over Args and input contents, hex into the output —
//	         the generic "real work" stand-in: content-propagating, so
//	         a changed input reruns the whole downstream cone
//	chunk    split the single input into len(Outputs) contiguous pieces
//
// Every builtin Ticks in proportion to bytes processed, so virtual
// time reflects modeled work deterministically.
func DefaultActions() *Actions {
	a := NewActions()
	a.Register("gen", func(c *TaskCtx) error {
		out := []byte(strings.Join(c.Args(), " ") + "\n")
		c.Tick(int64(len(out)))
		return c.WriteFile(c.Outputs()[0], out)
	})
	a.Register("concat", func(c *TaskCtx) error {
		var buf []byte
		for _, in := range c.Inputs() {
			b, err := c.ReadFile(in)
			if err != nil {
				return err
			}
			buf = append(buf, b...)
		}
		c.Tick(int64(len(buf)))
		return c.WriteFile(c.Outputs()[0], buf)
	})
	a.Register("upper", func(c *TaskCtx) error {
		b, err := c.ReadFile(c.Inputs()[0])
		if err != nil {
			return err
		}
		c.Tick(int64(len(b)))
		return c.WriteFile(c.Outputs()[0], []byte(strings.ToUpper(string(b))))
	})
	a.Register("derive", func(c *TaskCtx) error {
		h := sha256.New()
		for _, arg := range c.Args() {
			h.Write([]byte(arg))
			h.Write([]byte{0})
		}
		n := 0
		for _, in := range c.Inputs() {
			b, err := c.ReadFile(in)
			if err != nil {
				return err
			}
			h.Write([]byte(in))
			h.Write([]byte{0})
			h.Write(b)
			n += len(b)
		}
		c.Tick(int64(n) + 64)
		return c.WriteFile(c.Outputs()[0], []byte(hex.EncodeToString(h.Sum(nil))+"\n"))
	})
	a.Register("chunk", func(c *TaskCtx) error {
		b, err := c.ReadFile(c.Inputs()[0])
		if err != nil {
			return err
		}
		outs := c.Outputs()
		c.Tick(int64(len(b)))
		per := len(b) / len(outs)
		for i, out := range outs {
			lo, hi := i*per, (i+1)*per
			if i == len(outs)-1 {
				hi = len(b)
			}
			if err := c.WriteFile(out, b[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	})
	return a
}
