// Quickstart: the private workspace model in five minutes.
//
// Three demonstrations on a simulated Determinator machine:
//
//  1. the paper's §2.2 example — two threads concurrently run x = y and
//     y = x, and deterministically swap (a data race anywhere else);
//  2. parallel in-place work on a shared array with no copying, no
//     locking, and no possibility of a read/write race;
//  3. a genuine write/write race, which Determinator converts into a
//     reliably reported conflict instead of silent corruption.
//
// Run: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"os"

	repro "repro"
)

func main() {
	sess, err := repro.NewSession(repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4}))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A program with no phases is a one-shot run: Result is all of it.
	res, err := sess.RunProgram(repro.Program{Result: demo})
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine stopped:", err)
		os.Exit(1)
	}
	fmt.Printf("done (deterministic virtual time: %d instructions)\n", res.VT)
}

func demo(rt *repro.RT) uint64 {
	env := rt.Env()

	// --- 1. The swap that would be a race anywhere else -----------------
	x := rt.Alloc(4, 0)
	y := rt.Alloc(4, 0)
	env.WriteU32(x, 111)
	env.WriteU32(y, 222)
	rt.Fork(0, func(t *repro.Thread) uint64 {
		t.Env().WriteU32(x, t.Env().ReadU32(y)) // x = y
		return 0
	})
	rt.Fork(1, func(t *repro.Thread) uint64 {
		t.Env().WriteU32(y, t.Env().ReadU32(x)) // y = x
		return 0
	})
	rt.Join(0)
	rt.Join(1)
	fmt.Printf("swap: x=%d y=%d (always swapped — each thread read the pre-fork value)\n",
		env.ReadU32(x), env.ReadU32(y))

	// --- 2. In-place parallel update, race-free by construction ---------
	const n = 1 << 16
	arr := rt.Alloc(4*n, 4096)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	env.WriteU32s(arr, vals)
	results, err := rt.ParallelDo(4, func(t *repro.Thread) uint64 {
		lo, hi := t.ID*n/4, (t.ID+1)*n/4
		buf := make([]uint32, hi-lo)
		t.Env().ReadU32s(arr+repro.Addr(4*lo), buf)
		var sum uint64
		for i := range buf {
			buf[i] = buf[i]*buf[i] + 1
			sum += uint64(buf[i])
		}
		t.Env().WriteU32s(arr+repro.Addr(4*lo), buf)
		return sum
	})
	if err != nil {
		panic(err)
	}
	var total uint64
	for _, r := range results {
		total += r
	}
	fmt.Printf("parallel map: 4 threads updated %d elements in place, checksum %d\n", n, total)

	// --- 3. A write/write race becomes a detected conflict --------------
	slot := rt.Alloc(4, 0)
	rt.Fork(0, func(t *repro.Thread) uint64 { t.Env().WriteU32(slot, 1); return 0 })
	rt.Fork(1, func(t *repro.Thread) uint64 { t.Env().WriteU32(slot, 2); return 0 })
	rt.Join(0)
	_, err = rt.Join(1)
	var conflict *repro.ConflictError
	if errors.As(err, &conflict) {
		fmt.Printf("race: both threads wrote the same word — detected deterministically: %v\n",
			conflict)
	} else {
		fmt.Println("BUG: conflict not detected")
	}
	return total
}
