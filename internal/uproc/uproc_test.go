package uproc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
)

// boot runs entry with the given registry additions and console script,
// returning the exit status and console output.
func boot(t *testing.T, reg *Registry, stdin string, entry string, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	res := Boot(BootConfig{
		Registry: reg,
		Stdin:    strings.NewReader(stdin),
		Stdout:   &out,
	}, entry, args...)
	if res.Run.Status != kernel.StatusHalted {
		t.Fatalf("init stopped with %v: %v", res.Run.Status, res.Run.Err)
	}
	return res.ExitStatus, out.String()
}

func TestForkWaitExitStatus(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, err := p.Fork(func(c *Proc) int { return 42 })
		if err != nil {
			panic(err)
		}
		status, conflicts, err := p.Waitpid(pid)
		if err != nil || len(conflicts) != 0 {
			panic("waitpid failed")
		}
		return status
	})
	status, _ := boot(t, reg, "", "init")
	if status != 42 {
		t.Errorf("exit status = %d, want 42", status)
	}
}

func TestChildFileOutputPropagatesAtWait(t *testing.T) {
	// The parallel-make scenario of §4.2: children write .o files into
	// their own replicas; the parent sees them after wait.
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		var pids []int
		for _, name := range []string{"a.o", "b.o", "c.o"} {
			name := name
			pid, err := p.Fork(func(c *Proc) int {
				if err := c.FS().WriteFile(name, []byte("obj:"+name)); err != nil {
					panic(err)
				}
				return 0
			})
			if err != nil {
				panic(err)
			}
			pids = append(pids, pid)
		}
		for _, pid := range pids {
			if _, conflicts, err := p.Waitpid(pid); err != nil || len(conflicts) != 0 {
				panic("wait failed")
			}
		}
		for _, name := range []string{"a.o", "b.o", "c.o"} {
			got, err := p.FS().ReadFile(name)
			if err != nil || string(got) != "obj:"+name {
				panic("missing child output " + name)
			}
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestConcurrentWriteConflictReportedAtWait(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		if err := p.FS().Create("shared.txt"); err != nil {
			panic(err)
		}
		writeIt := func(c *Proc) int {
			if err := c.FS().WriteFile("shared.txt", []byte(c.Args()[0])); err != nil {
				panic(err)
			}
			return 0
		}
		p1, _ := p.Fork(writeIt, "one")
		p2, _ := p.Fork(writeIt, "two")
		_, c1, err := p.Waitpid(p1)
		if err != nil || len(c1) != 0 {
			panic("first wait should be clean")
		}
		_, c2, err := p.Waitpid(p2)
		if err != nil {
			panic(err)
		}
		if len(c2) != 1 || c2[0].Name != "shared.txt" {
			panic("conflict not reported")
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestConsoleOutputAppearsAsUnits(t *testing.T) {
	// §6.1: each process's output appears as a unit in a deterministic
	// order (the order the parent collects children), even though the
	// children "run" concurrently.
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		chatty := func(c *Proc) int {
			for i := 0; i < 3; i++ {
				c.ConsoleWrite([]byte(c.Args()[0]))
			}
			return 0
		}
		pa, _ := p.Fork(chatty, "A")
		pb, _ := p.Fork(chatty, "B")
		p.Waitpid(pb) // collect B first: B's output must precede A's
		p.Waitpid(pa)
		return 0
	})
	_, out := boot(t, reg, "", "init")
	if out != "BBBAAA" {
		t.Errorf("console output = %q, want BBBAAA (units in collection order)", out)
	}
}

func TestConsoleOutputIdenticalAcrossRuns(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		loud := func(c *Proc) int {
			c.ConsoleWrite([]byte(c.Args()[0] + ";"))
			return 0
		}
		var pids []int
		for _, s := range []string{"p", "q", "r", "s"} {
			pid, _ := p.Fork(loud, s)
			pids = append(pids, pid)
		}
		for _, pid := range pids {
			p.Waitpid(pid)
		}
		return 0
	})
	_, first := boot(t, reg, "", "init")
	for i := 0; i < 3; i++ {
		if _, out := boot(t, reg, "", "init"); out != first {
			t.Fatalf("run %d output %q differs from %q", i, out, first)
		}
	}
	if first != "p;q;r;s;" {
		t.Errorf("output = %q", first)
	}
}

func TestChildReadsConsoleInput(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.Fork(func(c *Proc) int {
			line, ok := c.ReadLine()
			if !ok {
				return 1
			}
			c.ConsoleWrite([]byte("child got: " + line))
			return 0
		})
		status, _, err := p.Waitpid(pid)
		if err != nil {
			panic(err)
		}
		return status
	})
	status, out := boot(t, reg, "hello world\n", "init")
	if status != 0 {
		t.Fatalf("child saw EOF instead of input (status %d)", status)
	}
	if out != "child got: hello world" {
		t.Errorf("output = %q", out)
	}
}

func TestGrandchildInputForwardsThroughHierarchy(t *testing.T) {
	// §4.3: a parent with no input for a waiting child forwards the
	// request to its own parent, ultimately to the root.
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.Fork(func(mid *Proc) int {
			gpid, _ := mid.Fork(func(g *Proc) int {
				line, ok := g.ReadLine()
				if !ok {
					return 1
				}
				g.ConsoleWrite([]byte("deep: " + line))
				return 0
			})
			status, _, err := mid.Waitpid(gpid)
			if err != nil {
				panic(err)
			}
			return status
		})
		status, _, err := p.Waitpid(pid)
		if err != nil {
			panic(err)
		}
		return status
	})
	status, out := boot(t, reg, "ping\n", "init")
	if status != 0 {
		t.Fatalf("grandchild got EOF (status %d)", status)
	}
	if out != "deep: ping" {
		t.Errorf("output = %q", out)
	}
}

func TestConsoleEOF(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.Fork(func(c *Proc) int {
			lines := 0
			for {
				_, ok := c.ReadLine()
				if !ok {
					return lines
				}
				lines++
			}
		})
		status, _, _ := p.Waitpid(pid)
		return status
	})
	status, _ := boot(t, reg, "a\nb\n", "init")
	if status != 2 {
		t.Errorf("child read %d lines, want 2 then EOF", status)
	}
}

func TestExecReplacesProgramKeepsFS(t *testing.T) {
	reg := NewRegistry()
	reg.Register("second", func(p *Proc) int {
		// The file written before exec must still be visible: exec
		// carries the file system over (§4.1).
		got, err := p.FS().ReadFile("pre-exec")
		if err != nil {
			return 1
		}
		p.ConsoleWrite([]byte("second sees: " + string(got)))
		if len(p.Args()) != 2 || p.Args()[1] != "argv1" {
			return 2
		}
		return 0
	})
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.Fork(func(c *Proc) int {
			if err := c.FS().WriteFile("pre-exec", []byte("kept")); err != nil {
				panic(err)
			}
			if err := c.Exec("second", "argv1"); err != nil {
				panic(err)
			}
			return 99 // unreachable
		})
		status, _, err := p.Waitpid(pid)
		if err != nil {
			panic(err)
		}
		return status
	})
	status, out := boot(t, reg, "", "init")
	if status != 0 {
		t.Fatalf("exec'd program failed with %d", status)
	}
	if out != "second sees: kept" {
		t.Errorf("output = %q", out)
	}
}

func TestExecUnknownProgramFails(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		if err := p.Exec("no-such-thing"); !errors.Is(err, ErrNoProgram) {
			panic("exec of unknown program did not fail")
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestForkExecByName(t *testing.T) {
	reg := NewRegistry()
	reg.Register("worker", func(p *Proc) int {
		return len(p.Args()) // name + 2 args = 3
	})
	reg.Register("init", func(p *Proc) int {
		pid, err := p.ForkExec("worker", "x", "y")
		if err != nil {
			panic(err)
		}
		status, _, _ := p.Waitpid(pid)
		return status
	})
	status, _ := boot(t, reg, "", "init")
	if status != 3 {
		t.Errorf("argv not delivered: status %d", status)
	}
}

func TestWaitReturnsEarliestForked(t *testing.T) {
	// §4.1/Figure 4: wait() returns the earliest-forked uncollected
	// child, regardless of actual completion order.
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		longPid, _ := p.Fork(func(c *Proc) int {
			c.Env().Tick(1_000_000) // long task
			return 10
		})
		p.Fork(func(c *Proc) int { return 20 }) // short task
		pid, status, _, err := p.Wait()
		if err != nil {
			panic(err)
		}
		if pid != longPid || status != 10 {
			panic("wait did not pick the earliest-forked child")
		}
		_, status2, _, err := p.Wait()
		if err != nil || status2 != 20 {
			panic("second wait wrong")
		}
		if _, _, _, err := p.Wait(); !errors.Is(err, ErrNoChildren) {
			panic("wait with no children should fail")
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestPIDsAreProcessLocal(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pidA, _ := p.Fork(func(c *Proc) int {
			// This child's own first fork must also get PID 1: PIDs are
			// per-process namespaces (§2.4), so they may "collide".
			sub, _ := c.Fork(func(g *Proc) int { return 0 })
			if sub != 1 {
				return 1
			}
			c.Waitpid(sub)
			return 0
		})
		if pidA != 1 {
			panic("first fork should get PID 1")
		}
		status, _, _ := p.Waitpid(pidA)
		return status
	})
	status, _ := boot(t, reg, "", "init")
	if status != 0 {
		t.Error("child saw a non-local PID namespace")
	}
}

func TestCrashedChildReported(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.Fork(func(c *Proc) int {
			panic("child exploded")
		})
		_, _, err := p.Waitpid(pid)
		var ee *ExitError
		if !errors.As(err, &ee) {
			panic("crash not reported as ExitError")
		}
		if ee.Status != kernel.StatusExcept {
			panic("wrong crash status")
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestWaitpidUnknownChild(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		if _, _, err := p.Waitpid(77); !errors.Is(err, ErrNoChild) {
			panic("waitpid on unknown pid did not fail")
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestPIDSlotReuse(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		// Fork and reap many children sequentially; the child-space free
		// list must recycle slots rather than exhausting the namespace.
		for i := 0; i < 50; i++ {
			pid, err := p.Fork(func(c *Proc) int { return 7 })
			if err != nil {
				panic(err)
			}
			status, _, err := p.Waitpid(pid)
			if err != nil || status != 7 {
				panic("sequential fork/wait failed")
			}
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestSyncFlushesOutputEarly(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.Fork(func(c *Proc) int {
			c.ConsoleWrite([]byte("early"))
			c.Sync()
			// After Sync returns, the output has propagated to the root.
			c.ConsoleWrite([]byte("|late"))
			return 0
		})
		p.Waitpid(pid)
		return 0
	})
	_, out := boot(t, reg, "", "init")
	if out != "early|late" {
		t.Errorf("output = %q", out)
	}
}
