// Package repro is a from-scratch Go reproduction of Determinator, the
// operating system of "Efficient System-Enforced Deterministic
// Parallelism" (Aviram, Weng, Hu, Ford — OSDI 2010). Everything a
// program computes under this API is deterministic: results depend only
// on the program and its explicit inputs, never on scheduling.
//
// # Sessions
//
// The Session is the package's entry point: one builder that composes
// the machine (cluster shape, cost model), the runtime (shared-region
// size), console I/O, and trace record/replay.
//
//	sess, err := repro.NewSession(
//	    repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4}),
//	    repro.WithRecord(),
//	)
//	if err != nil {
//	    log.Fatal(err)
//	}
//	res, err := sess.RunProgram(repro.Program{Result: func(rt *repro.RT) uint64 {
//	    x := rt.Alloc(4, 0)
//	    rt.Env().WriteU32(x, 1)
//	    rt.ParallelDo(4, func(t *repro.Thread) uint64 { ... })
//	    return uint64(rt.Env().ReadU32(x))
//	}})
//
// A Program with no phases is a one-shot run: Result is the whole
// program.
//
// Sessions also own deterministic checkpoint/restore. A phased Program
// bound to a session runs one Step at a time, and at any phase barrier
// Suspend captures an Image — a versioned serialization of the whole
// space tree (memory, snapshots and their COW sharing), every
// space's virtual time and traffic counters, the device cursors and the
// trace log so far — into a content-addressed store; BindSuspended picks
// it up in a fresh Session or a fresh process:
//
//	sess.Bind(prog)
//	sess.Step(2)                                // run 2 phases, park
//	m, _ := sess.Suspend(store)                 // save, tear down
//	sess2.BindSuspended(prog, store, m)
//	sr, _ := sess2.Step(prog.Phases)            // bit-identical continuation
//
// The resumed run's checksums, conflict reports and virtual times are
// bit-identical to an uninterrupted run's, and a run that checkpoints is
// bit-identical to one that does not (checkpointing is a pure
// observation). See Session, Program and Image; examples/castore is a
// runnable walkthrough.
//
// # Layers
//
// The root package is a facade over the layered implementation:
//
//   - internal/vm      — software paged memory: COW, snapshots, byte-level
//     merge, and the canonical forest serialization behind checkpoints
//   - internal/kernel  — spaces, Put/Get/Ret, instruction limits, migration,
//     devices, checkpoint/restore of space trees, and the deterministic
//     virtual-time cost model
//   - internal/core    — the private workspace model: fork/join threads,
//     barriers, deterministic allocation (the paper's §4.4)
//   - internal/fs      — replicated file system with versioned reconciliation
//   - internal/uproc   — Unix process emulation: fork/exec/wait, console I/O
//   - internal/dsched  — deterministic scheduling of legacy mutex/condvar code
//   - internal/trace   — record/replay of explicit nondeterministic inputs
//   - internal/workload, internal/baseline, internal/bench — the paper's
//     evaluation: benchmarks, comparison systems, experiment harness
//
// The pre-Session entry points Run and NewSchedWith remain as thin
// wrappers. They validate their inputs: a negative quantum surfaces as
// a typed *SchedConfigError, never as a silently substituted default.
package repro

import (
	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/trace"
	"repro/internal/uproc"
	"repro/internal/vm"
)

// Kernel layer.
type (
	// MachineConfig configures nodes, CPUs, cost model and devices.
	MachineConfig = kernel.Config
	// CostModel holds the virtual-time constants.
	CostModel = kernel.CostModel
	// Env is a space's handle to its private memory and the syscall API.
	Env = kernel.Env
	// Regs is a space's register state.
	Regs = kernel.Regs
	// PutOpts / GetOpts select syscall options (Table 2 of the paper).
	PutOpts = kernel.PutOpts
	// GetOpts selects Get options.
	GetOpts = kernel.GetOpts
	// RunResult reports a completed root program.
	RunResult = kernel.RunResult
	// Status reports why a space stopped.
	Status = kernel.Status
)

// Checkpoint/restore (see Session).
type (
	// RTState is the runtime bookkeeping carried by an Image.
	RTState = core.RTState
	// SchedState is a deterministic scheduler's exported state, stashed
	// in an Image by Program.Snapshot and reattached with AttachSched.
	SchedState = dsched.State
	// NotQuiescentError reports a checkpoint attempted while a space was
	// suspended mid-execution.
	NotQuiescentError = kernel.NotQuiescentError
	// BadImageError reports a corrupt or truncated machine image.
	BadImageError = kernel.BadImageError
	// ImageVersionError reports a machine image from a newer format.
	ImageVersionError = kernel.ImageVersionError
	// ImageMismatchError reports a restore onto a machine whose
	// configuration differs from the checkpointed one.
	ImageMismatchError = kernel.ImageMismatchError
)

// Content-addressed checkpoint store (see Session.Suspend and
// Session.BindSuspended).
type (
	// BlobStore is the pluggable chunk-store interface Suspend targets:
	// chunks by key, and refs — names that point at a key.
	BlobStore = castore.BlobStore
	// ChunkStore extends BlobStore with enumeration and deletion — what
	// garbage collection needs.
	ChunkStore = castore.Store
	// ChunkKey is a chunk's SHA-256 content key.
	ChunkKey = castore.Key
	// MemStore is the in-memory chunk store.
	MemStore = castore.MemStore
	// DirStore is the on-disk (loose-object directory) chunk store.
	DirStore = castore.DirStore
	// BlobInfo describes one stored chunk.
	BlobInfo = castore.BlobInfo
	// StoreStats summarizes a chunk store's contents and traffic.
	StoreStats = castore.StoreStats
	// CollectStats reports one garbage collection run.
	CollectStats = castore.CollectStats
	// ChunkMissingError reports a referenced chunk absent from a store.
	ChunkMissingError = castore.ChunkMissingError
	// ChunkHashError reports a chunk whose bytes no longer match its key.
	ChunkHashError = castore.ChunkHashError
	// RefError reports a store ref whose value is not a chunk key.
	RefError = castore.RefError
)

// NewMemStore returns an empty in-memory chunk store.
func NewMemStore() *MemStore { return castore.NewMemStore() }

// OpenDirStore opens (creating if needed) an on-disk chunk store.
func OpenDirStore(dir string) (*DirStore, error) { return castore.OpenDirStore(dir) }

// CollectChunks removes every chunk in s reachable neither from one of
// s's own refs (SetRef: a chain's head, a build's action entries) nor
// from live, the manifest keys the caller holds without a ref. A missing
// or damaged root, or a ref whose value is not a key (*RefError), aborts
// before anything is deleted.
func CollectChunks(s ChunkStore, live ...ChunkKey) (CollectStats, error) {
	return castore.Collect(s, live)
}

// Private workspace threading (the paper's primary contribution).
type (
	// RT is the user-level runtime: fork/join, barriers, allocation.
	RT = core.RT
	// Thread is a private-workspace thread handle.
	Thread = core.Thread
	// Options configures Run.
	Options = core.Options
	// ConflictError reports a write/write conflict found at join.
	ConflictError = core.ConflictError
)

// Unix emulation.
type (
	// Proc is an emulated Unix process.
	Proc = uproc.Proc
	// UnixProgram is an executable image for fork/exec (the name Program
	// now belongs to the Session's phased checkpointable programs).
	UnixProgram = uproc.Program
	// Registry maps program names to images.
	Registry = uproc.Registry
	// UprocInitState is the init process's Go-side checkpoint state.
	UprocInitState = uproc.InitState
	// UprocStateError reports init-process state that cannot cross a
	// checkpoint image (uncollected children, redirected streams).
	UprocStateError = uproc.StateError
)

// Supporting layers.
type (
	// FS is a handle on a replicated file system image.
	FS = fs.FS
	// Sched is the deterministic scheduler for legacy thread APIs.
	Sched = dsched.Sched
	// SchedConfig is the deterministic scheduler's full configuration.
	SchedConfig = dsched.Config
	// SchedConfigError reports an invalid scheduler configuration.
	SchedConfigError = dsched.BadConfigError
	// SchedThread is a thread handle under the deterministic scheduler.
	SchedThread = dsched.Thread
	// Mutex names a scheduler-managed mutex.
	Mutex = dsched.Mutex
	// Cond names a scheduler-managed condition variable.
	Cond = dsched.Cond
	// TraceLog records a run's explicit nondeterministic inputs.
	TraceLog = trace.Log
	// Addr is a 32-bit virtual address.
	Addr = vm.Addr
)

// Run executes main as a deterministic parallel program on a fresh
// machine and returns the result. It is the pre-Session spelling of
// RunProgram(Program{Result: main}) on a Session built from opts, kept
// as a thin wrapper because the frozen benchmark/ calls it.
func Run(opts Options, main func(rt *RT) uint64) RunResult { return core.Run(opts, main) }

// NewRegistry returns an empty program registry for UprocProgram.
func NewRegistry() *Registry { return uproc.NewRegistry() }

// NewSchedWith creates a deterministic scheduler for legacy
// mutex/condvar code in the master space managed by rt. A zero Quantum
// selects the default; invalid values are a typed *SchedConfigError.
func NewSchedWith(rt *RT, cfg SchedConfig) (*Sched, error) {
	return dsched.New(rt, cfg)
}

// UnmarshalTrace parses a serialized trace log, ready for WithReplay.
func UnmarshalTrace(data []byte) (*TraceLog, error) { return trace.Unmarshal(data) }
