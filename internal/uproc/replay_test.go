package uproc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/trace"
)

func TestExecChain(t *testing.T) {
	// exec → exec → exit: each stage leaves a file, the final stage sees
	// all of them (FS carried across exec, §4.1).
	reg := NewRegistry()
	reg.Register("stage3", func(p *Proc) int {
		for _, f := range []string{"s1", "s2"} {
			if _, err := p.FS().ReadFile(f); err != nil {
				return 1
			}
		}
		return 30
	})
	reg.Register("stage2", func(p *Proc) int {
		p.FS().WriteFile("s2", []byte("two"))
		p.Exec("stage3")
		return 99
	})
	reg.Register("stage1", func(p *Proc) int {
		p.FS().WriteFile("s1", []byte("one"))
		p.Exec("stage2")
		return 99
	})
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.ForkExec("stage1")
		status, _, err := p.Waitpid(pid)
		if err != nil {
			panic(err)
		}
		return status
	})
	status, _ := boot(t, reg, "", "init")
	if status != 30 {
		t.Errorf("exec chain exit status = %d, want 30", status)
	}
}

// TestBootRecordReplay runs a whole interactive process tree with
// recorded console input, then replays the trace: byte-identical output,
// end to end through fork, wait, FS reconciliation and I/O forwarding.
func TestBootRecordReplay(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, _ := p.Fork(func(c *Proc) int {
			for {
				line, ok := c.ReadLine()
				if !ok {
					return 0
				}
				c.ConsoleWrite([]byte("<" + line + ">"))
			}
		})
		p.Waitpid(pid)
		return 0
	})

	// Recorded run.
	kcfg := kernel.Config{}
	log := trace.Record(&kcfg)
	var out1 bytes.Buffer
	kcfg.Console = kernel.NewConsole(log.RecordInput(strings.NewReader("alpha\nbeta\n")), &out1)
	m := kernel.New(kcfg)
	runInit(t, m, reg)

	// Replayed run from the serialized trace.
	blob, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := trace.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	var kcfg2 kernel.Config
	trace.Replay(&kcfg2, restored)
	var out2 bytes.Buffer
	kcfg2.Console = kernel.NewConsole(restored.ReplayInput(), &out2)
	runInit(t, kernel.New(kcfg2), reg)

	if out1.String() != out2.String() {
		t.Fatalf("replayed boot diverged: %q vs %q", out1.String(), out2.String())
	}
	if out1.String() != "<alpha><beta>" {
		t.Errorf("output = %q", out1.String())
	}
}

// runInit boots the init program on a pre-built machine, as Boot does
// (Boot owns machine construction and so cannot be used with Record).
func runInit(t *testing.T, m *kernel.Machine, reg *Registry) {
	t.Helper()
	prog, _ := reg.Lookup("init")
	res := m.Run(func(env *kernel.Env) {
		p, err := NewInit(env, reg, []string{"init"})
		if err != nil {
			panic(err)
		}
		status := p.runToExit(prog)
		p.pumpConsole()
		env.SetRet(uint64(status))
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("init stopped with %v: %v", res.Status, res.Err)
	}
}
