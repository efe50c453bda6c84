package uproc

import (
	"io"

	"repro/internal/kernel"
)

// BootConfig describes the machine and environment for a process tree.
type BootConfig struct {
	Kernel   kernel.Config
	Registry *Registry
	Stdin    io.Reader // console input script (nil = empty)
	Stdout   io.Writer // console output sink (nil = discard)
}

// BootResult reports a completed Boot.
type BootResult struct {
	ExitStatus int
	Run        kernel.RunResult
}

// Boot builds a machine, formats the root file system, creates the
// console files, and runs the named program as the init process (PID-less
// root of the process tree, and the only process with device access).
// It returns once the whole tree has finished and all buffered console
// output has reached Stdout.
func Boot(cfg BootConfig, entry string, args ...string) BootResult {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	prog, ok := cfg.Registry.Lookup(entry)
	if !ok {
		panic("uproc: boot program not registered: " + entry)
	}
	cfg.Kernel.Console = kernel.NewConsole(cfg.Stdin, cfg.Stdout)
	m := kernel.New(cfg.Kernel)
	res := m.Run(func(env *kernel.Env) {
		p, err := NewInit(env, cfg.Registry, append([]string{entry}, args...))
		if err != nil {
			panic(err)
		}
		status := p.runToExit(prog)
		p.pumpConsole() // final output flush
		env.SetRet(uint64(status))
	}, 0)
	return BootResult{ExitStatus: int(res.Ret), Run: res}
}
