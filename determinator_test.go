package repro

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/uproc"
)

// Facade-level integration tests: the library as a downstream user sees
// it, exercising whole vertical slices of the system.

func TestFacadeRunParallelProgram(t *testing.T) {
	res := Run(Options{Kernel: MachineConfig{CPUsPerNode: 4}}, func(rt *RT) uint64 {
		arr := rt.Alloc(4*1000, 4)
		vals := make([]uint32, 1000)
		for i := range vals {
			vals[i] = 1
		}
		rt.Env().WriteU32s(arr, vals)
		results, err := rt.ParallelDo(4, func(th *Thread) uint64 {
			lo, hi := th.ID*250, (th.ID+1)*250
			var sum uint64
			for i := lo; i < hi; i++ {
				sum += uint64(th.Env().ReadU32(arr + Addr(4*i)))
			}
			return sum
		})
		if err != nil {
			panic(err)
		}
		var total uint64
		for _, r := range results {
			total += r
		}
		return total
	})
	if res.Err != nil || res.Ret != 1000 {
		t.Fatalf("facade run: ret=%d err=%v", res.Ret, res.Err)
	}
}

func TestFacadeConflictSurfaces(t *testing.T) {
	res := Run(Options{}, func(rt *RT) uint64 {
		slot := rt.Alloc(8, 8)
		rt.Fork(0, func(th *Thread) uint64 { th.Env().WriteU64(slot, 1); return 0 })
		rt.Fork(1, func(th *Thread) uint64 { th.Env().WriteU64(slot, 2); return 0 })
		rt.Join(0)
		_, err := rt.Join(1)
		var ce *ConflictError
		if !errors.As(err, &ce) {
			panic("no conflict")
		}
		return 1
	})
	if res.Err != nil || res.Ret != 1 {
		t.Fatalf("conflict path: %v", res.Err)
	}
}

func TestFacadeDeterministicScheduler(t *testing.T) {
	res := Run(Options{Kernel: MachineConfig{CPUsPerNode: 2}}, func(rt *RT) uint64 {
		s, err := NewSchedWith(rt, SchedConfig{Quantum: 1000})
		if err != nil {
			panic(err)
		}
		mu := s.NewMutex()
		counter := rt.Alloc(4, 4)
		if err := s.Run(3, func(th *SchedThread) {
			for i := 0; i < 10; i++ {
				th.Lock(mu)
				v := th.Env().ReadU32(counter)
				th.Env().WriteU32(counter, v+1)
				th.Unlock(mu)
			}
		}); err != nil {
			panic(err)
		}
		return uint64(rt.Env().ReadU32(counter))
	})
	if res.Err != nil || res.Ret != 30 {
		t.Fatalf("dsched facade: ret=%d err=%v", res.Ret, res.Err)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	prog := func(env *Env) {
		v := env.RandUint64() ^ uint64(env.ClockNow())
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		env.ConsoleWrite(buf[:])
	}
	run := func(out *bytes.Buffer, opts ...SessionOption) *Session {
		sess, err := NewSession(append(opts, WithConsole(nil, out))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunProgram(Program{Result: func(rt *RT) uint64 { prog(rt.Env()); return 0 }}); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	var out1, out2 bytes.Buffer
	log := run(&out1, WithMachine(MachineConfig{Rand: kernel.SeededRand(12345)}), WithRecord()).TraceLog()

	blob, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalTrace(blob)
	if err != nil {
		t.Fatal(err)
	}
	run(&out2, WithReplay(restored))

	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("replay diverged")
	}
}

// TestWholeSystemDeterminism runs a mixed workload (threads + processes
// + files + scheduler) several times and demands bit-identical outcomes:
// the paper's core claim, end to end.
func TestWholeSystemDeterminism(t *testing.T) {
	run := func() (uint64, int64, string) {
		var fileState string
		reg := NewRegistry()
		reg.Register("init", func(p *Proc) int {
			for i := 0; i < 3; i++ {
				i := i
				p.Fork(func(c *Proc) int {
					name := string(rune('a' + i))
					c.FS().WriteFile(name, []byte(strings.Repeat(name, i+1)))
					c.ConsoleWrite([]byte(name))
					return i
				})
			}
			sum := 0
			for i := 0; i < 3; i++ {
				_, status, _, err := p.Wait()
				if err != nil {
					panic(err)
				}
				sum += status
			}
			var sb strings.Builder
			for _, info := range p.FS().List() {
				data, _ := p.FS().ReadFile(info.Name)
				sb.WriteString(info.Name + "=" + string(data) + ";")
			}
			fileState = sb.String()
			return sum
		})
		var out bytes.Buffer
		res := uproc.Boot(uproc.BootConfig{Registry: reg, Stdout: &out, Kernel: MachineConfig{CPUsPerNode: 4}}, "init")
		return uint64(res.ExitStatus), res.Run.VT, fileState + "|" + out.String()
	}
	s1, vt1, state1 := run()
	for i := 0; i < 4; i++ {
		s, vt, state := run()
		if s != s1 || vt != vt1 || state != state1 {
			t.Fatalf("run %d diverged:\n%d %d %q\nvs\n%d %d %q", i, s, vt, state, s1, vt1, state1)
		}
	}
}
