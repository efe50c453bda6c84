package repro_test

import (
	"fmt"
	"strings"

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
