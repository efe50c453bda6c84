// Replay: record-and-replay of explicit nondeterministic inputs (§2.1).
//
// A program that consumes "wall-clock" time readings, entropy, and
// console input runs once in a Session built WithRecord, which logs
// every nondeterministic input at the device boundary. The log is then
// serialized, restored, and the program re-runs in a Session built
// WithReplay, whose devices are synthesized from it: because the kernel
// eliminates all internal nondeterminism, replaying the explicit inputs
// alone reproduces the run byte for byte — the foundation of replay
// debugging, fault tolerance and intrusion analysis that motivates the
// paper.
//
// Run: go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	repro "repro"
	"repro/internal/kernel"
)

// program is deliberately "noisy": its output depends on the clock,
// the entropy device, console input, and parallel child results.
func program(env *repro.Env) {
	var out bytes.Buffer
	fmt.Fprintf(&out, "boot at t=%d\n", env.ClockNow())

	// Parallel children whose merged results feed the output.
	for i := uint64(1); i <= 3; i++ {
		seed := env.RandUint64()
		if err := env.Put(i, repro.PutOpts{
			Regs: &repro.Regs{Entry: func(c *repro.Env) {
				v := c.Arg()
				for j := 0; j < 1000; j++ {
					v = v*6364136223846793005 + 1442695040888963407
					c.Tick(3)
				}
				c.SetRet(v)
			}, Arg: seed},
			Start: true,
		}); err != nil {
			panic(err)
		}
	}
	for i := uint64(1); i <= 3; i++ {
		info, err := env.Get(i, repro.GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&out, "worker %d -> %x\n", i, info.Regs.Ret&0xffffff)
	}

	var in [64]byte
	n := env.ConsoleRead(in[:])
	fmt.Fprintf(&out, "stdin said %q at t=%d\n", in[:n], env.ClockNow())
	env.ConsoleWrite(out.Bytes())
}

// run executes program in a fresh Session built from opts, with stdin
// as its console input and out as its console output.
func run(stdin string, out io.Writer, opts ...repro.SessionOption) *repro.Session {
	sess, err := repro.NewSession(append(opts, repro.WithConsole(strings.NewReader(stdin), out))...)
	check(err)
	_, err = sess.RunProgram(repro.Program{Result: func(rt *repro.RT) uint64 { program(rt.Env()); return 0 }})
	check(err)
	return sess
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	// --- Recorded run with genuinely nondeterministic devices ----------
	var out1 bytes.Buffer
	log := run("hello from the outside\n", &out1, repro.WithRecord(), repro.WithMachine(repro.MachineConfig{
		Clock: func() int64 { return time.Now().UnixNano() },
		Rand:  kernel.SeededRand(uint64(time.Now().UnixNano() | 1)),
	})).TraceLog()

	fmt.Println("--- recorded run ---")
	fmt.Print(out1.String())

	blob, err := log.Marshal()
	check(err)
	fmt.Printf("--- trace: %d bytes (%d clock readings, %d entropy words, %d input chunks) ---\n",
		len(blob), len(log.Clock), len(log.Rand), len(log.Input))

	// --- Replay from the serialized trace: nothing arrives from outside --
	restored, err := repro.UnmarshalTrace(blob)
	check(err)
	var out2 bytes.Buffer
	run("", &out2, repro.WithReplay(restored))

	fmt.Println("--- replayed run ---")
	fmt.Print(out2.String())

	if out1.String() != out2.String() {
		fmt.Println("--- REPLAY DIVERGED (bug!) ---")
		os.Exit(1)
	}
	fmt.Println("--- byte-for-byte identical ---")
}
