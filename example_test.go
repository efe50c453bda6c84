package repro_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	repro "repro"
)

// The paper's §2.2 example: two "racing" assignments that always swap.
func ExampleRun() {
	res := repro.Run(repro.Options{}, func(rt *repro.RT) uint64 {
		x := rt.Alloc(4, 0)
		y := rt.Alloc(4, 0)
		rt.Env().WriteU32(x, 1)
		rt.Env().WriteU32(y, 2)
		rt.Fork(0, func(t *repro.Thread) uint64 {
			t.Env().WriteU32(x, t.Env().ReadU32(y))
			return 0
		})
		rt.Fork(1, func(t *repro.Thread) uint64 {
			t.Env().WriteU32(y, t.Env().ReadU32(x))
			return 0
		})
		rt.Join(0)
		rt.Join(1)
		return uint64(rt.Env().ReadU32(x))*10 + uint64(rt.Env().ReadU32(y))
	})
	fmt.Println(res.Ret)
	// Output: 21
}

// Futures: Join returns each thread's result value.
func ExampleRT_ParallelDo() {
	res := repro.Run(repro.Options{}, func(rt *repro.RT) uint64 {
		results, err := rt.ParallelDo(4, func(t *repro.Thread) uint64 {
			return uint64(t.ID) * uint64(t.ID)
		})
		if err != nil {
			panic(err)
		}
		var sum uint64
		for _, r := range results {
			sum += r
		}
		return sum
	})
	fmt.Println(res.Ret)
	// Output: 14
}

// A minimal process tree: init forks a child, waits, and the child's
// console output arrives exactly once, in order.
func ExampleUprocProgram() {
	var out strings.Builder
	sess, err := repro.NewSession(repro.WithConsole(nil, &out))
	if err != nil {
		panic(err)
	}
	prog := repro.UprocProgram(repro.NewRegistry(), []string{"init"}, []repro.UprocPhase{
		func(p *repro.Proc) error {
			pid, err := p.Fork(func(c *repro.Proc) int {
				c.ConsoleWrite([]byte("hello from pid-local child\n"))
				return 0
			})
			if err != nil {
				return err
			}
			_, _, err = p.Waitpid(pid)
			return err
		},
	})
	if _, err := sess.RunProgram(prog); err != nil {
		panic(err)
	}
	fmt.Print(out.String())
	// Output: hello from pid-local child
}

// A bound session runs its program a slice at a time. Suspend saves the
// machine into a store and tears it down; BindSuspended picks it up — on
// a fresh session here, in a fresh process just as well — and the
// finish is bit-identical to one uninterrupted run.
func ExampleSession_Suspend() {
	prog := func() repro.Program {
		var acc repro.Addr
		return repro.Program{
			Phases: 4,
			Layout: func(rt *repro.RT) { acc = rt.Alloc(8, 8) },
			Phase: func(rt *repro.RT, k int) error {
				rt.Env().WriteU64(acc, rt.Env().ReadU64(acc)*31+uint64(k)+1)
				return nil
			},
			Result: func(rt *repro.RT) uint64 { return rt.Env().ReadU64(acc) },
		}
	}
	store := repro.NewMemStore()

	// Errors are dropped to keep this short: a failed call changes the
	// output below.
	sess, _ := repro.NewSession()
	sess.Bind(prog())
	sr, _ := sess.Step(2)       // phases 0 and 1; the root parks at barrier 2
	m, _ := sess.Suspend(store) // save the machine, tear it down

	sess2, _ := repro.NewSession()
	sess2.BindSuspended(prog(), store, m)
	end, _ := sess2.Step(2) // phases 2 and 3, then Result

	want, _ := repro.NewSession()
	res, _ := want.RunProgram(prog())
	fmt.Println("parked at barrier", sr.Phase)
	fmt.Println("finished:", end.Done, end.Result.Ret, end.Result.VT == res.VT && end.Result.Ret == res.Ret)
	// Output:
	// parked at barrier 2
	// finished: true 31810 true
}

// Write/write races surface as conflicts, not corruption.
func ExampleConflictError() {
	res := repro.Run(repro.Options{}, func(rt *repro.RT) uint64 {
		slot := rt.Alloc(4, 0)
		rt.Fork(0, func(t *repro.Thread) uint64 { t.Env().WriteU32(slot, 1); return 0 })
		rt.Fork(1, func(t *repro.Thread) uint64 { t.Env().WriteU32(slot, 2); return 0 })
		rt.Join(0)
		if _, err := rt.Join(1); err != nil {
			return 1 // deterministically detected
		}
		return 0
	})
	fmt.Println(res.Ret)
	// Output: 1
}

// TestReadmeCopiesExampleSessionSuspend holds the README's
// checkpoint/restore snippet to ExampleSession_Suspend's body, so an API
// change that breaks the example breaks the prose with it.
func TestReadmeCopiesExampleSessionSuspend(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(src), "func ExampleSession_Suspend() {\n")
	body, _, _ = strings.Cut(body, "\t// Output:")
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(l, "\t")
	}
	if block := "```go\n" + strings.Join(lines, "\n") + "\n```"; !strings.Contains(string(readme), block) {
		t.Errorf("README.md has no copy of ExampleSession_Suspend's body:\n%s", block)
	}
}
