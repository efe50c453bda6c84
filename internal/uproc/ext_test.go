package uproc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Tests for the runtime extensions: batch pipes and CPU quotas.

func TestPipelineTwoStages(t *testing.T) {
	reg := NewRegistry()
	reg.Register("produce", func(p *Proc) int {
		for i := 0; i < 5; i++ {
			p.ConsoleWrite([]byte(fmt.Sprintf("item %d\n", i)))
		}
		return 0
	})
	reg.Register("count", func(p *Proc) int {
		lines := 0
		for {
			_, ok := p.ReadLine()
			if !ok {
				break
			}
			lines++
		}
		p.ConsoleWrite([]byte(fmt.Sprintf("%d lines\n", lines)))
		return lines
	})
	reg.Register("init", func(p *Proc) int {
		status, err := p.Pipeline([][]string{{"produce"}, {"count"}})
		if err != nil {
			panic(err)
		}
		return status
	})
	status, out := boot(t, reg, "", "init")
	if status != 5 {
		t.Errorf("pipeline status = %d, want 5 (lines counted)", status)
	}
	if out != "5 lines\n" {
		t.Errorf("output = %q; producer output must be captured, not printed", out)
	}
}

func TestPipelineThreeStages(t *testing.T) {
	reg := NewRegistry()
	reg.Register("gen", func(p *Proc) int {
		p.ConsoleWrite([]byte("a\nbb\nccc\n"))
		return 0
	})
	reg.Register("upper", func(p *Proc) int {
		for {
			line, ok := p.ReadLine()
			if !ok {
				break
			}
			p.ConsoleWrite([]byte(strings.ToUpper(line) + "\n"))
		}
		return 0
	})
	reg.Register("join", func(p *Proc) int {
		var parts []string
		for {
			line, ok := p.ReadLine()
			if !ok {
				break
			}
			parts = append(parts, line)
		}
		p.ConsoleWrite([]byte(strings.Join(parts, "|") + "\n"))
		return 0
	})
	reg.Register("init", func(p *Proc) int {
		if _, err := p.Pipeline([][]string{{"gen"}, {"upper"}, {"join"}}); err != nil {
			panic(err)
		}
		return 0
	})
	_, out := boot(t, reg, "", "init")
	if out != "A|BB|CCC\n" {
		t.Errorf("three-stage pipeline output = %q", out)
	}
}

func TestPipelineUnknownProgram(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		if _, err := p.Pipeline([][]string{{"nope"}}); !errors.Is(err, ErrNoProgram) {
			panic("unknown pipeline stage accepted")
		}
		if _, err := p.Pipeline(nil); err == nil {
			panic("empty pipeline accepted")
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestForkExecStdinReadsFile(t *testing.T) {
	reg := NewRegistry()
	reg.Register("reader", func(p *Proc) int {
		line, ok := p.ReadLine()
		if !ok {
			return 1
		}
		p.ConsoleWrite([]byte("read: " + line))
		return 0
	})
	reg.Register("init", func(p *Proc) int {
		if err := p.FS().WriteFile("input.txt", []byte("from a file\n")); err != nil {
			panic(err)
		}
		pid, err := p.ForkExecStdin("reader", "input.txt")
		if err != nil {
			panic(err)
		}
		status, _, err := p.Waitpid(pid)
		if err != nil {
			panic(err)
		}
		return status
	})
	status, out := boot(t, reg, "THIS MUST NOT BE READ\n", "init")
	if status != 0 || out != "read: from a file" {
		t.Errorf("status=%d out=%q", status, out)
	}
}

func TestQuotaExceeded(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, err := p.ForkQuota(func(c *Proc) int {
			c.Env().Tick(1_000_000) // way beyond the quota
			return 0
		}, 10_000)
		if err != nil {
			panic(err)
		}
		_, _, err = p.Waitpid(pid)
		var qe *QuotaError
		if !errors.As(err, &qe) {
			panic("quota exhaustion not reported")
		}
		if qe.PID != pid || qe.Quota != 10_000 {
			panic("quota error details wrong")
		}
		return 0
	})
	boot(t, reg, "", "init")
}

func TestQuotaSufficientCompletes(t *testing.T) {
	reg := NewRegistry()
	reg.Register("init", func(p *Proc) int {
		pid, err := p.ForkQuota(func(c *Proc) int {
			c.Env().Tick(5_000)
			return 7
		}, 1_000_000)
		if err != nil {
			panic(err)
		}
		status, _, err := p.Waitpid(pid)
		if err != nil {
			panic(err)
		}
		return status
	})
	status, _ := boot(t, reg, "", "init")
	if status != 7 {
		t.Errorf("status = %d, want 7", status)
	}
}
