// Package kernel implements the Determinator microkernel: a hierarchy of
// single-threaded, shared-nothing spaces that interact only through the
// three system calls Put, Get and Ret (plus processor traps), exactly as
// described in §3 of the OSDI 2010 paper.
//
// The kernel here is a simulation substrate: a Machine stands in for the
// hardware (and, with more than one node, for a cluster of machines joined
// by Determinator's migration protocol). Application code runs as Go
// functions, one goroutine per space, but a space's only handles to the
// outside world are its private vm.Space and the syscall API on its Env —
// so the system remains a deterministic Kahn network no matter how Go
// schedules the goroutines.
//
// Time is virtual: spaces advance a logical instruction counter by ticking
// (and implicitly via memory accesses), and the kernel charges syscall,
// page-copy, merge and cross-node transfer costs to each space's virtual
// clock according to a CostModel. Each node owns a pool of virtual CPUs on
// which child execution segments are scheduled greedily, in program-defined
// rendezvous order, so reported times are deterministic and can model
// machines with more CPUs or nodes than the host has.
package kernel

import (
	"fmt"
	"sync"

	"repro/internal/vm"
)

// CostModel holds the virtual-time constants, expressed in "instructions"
// (one Tick unit). The defaults loosely model the paper's testbed: a ~2 GHz
// core, gigabit Ethernet between nodes, and page operations dominated by
// 4 KiB copies/compares.
type CostModel struct {
	Syscall      int64 // fixed cost of any Put/Get/Ret
	PageCopy     int64 // sharing one page COW (pte manipulation)
	PageCompare  int64 // byte-comparing one page during Merge
	PageAdopt    int64 // adopting one merge page whose parent copy is untouched (pte move)
	ByteMerge    int64 // folding one changed byte into the parent
	MigrateMsg   int64 // one cross-node protocol round trip (migration or page request)
	PageTransfer int64 // moving one 4 KiB page across the wire
	TCPLike      bool  // model TCP-style timing: extra per-message round-trip cost
	TCPExtra     int64 // added per cross-node message when TCPLike is set

	// Batched transfers (§3.3 at cluster scale): one request round trip
	// moves a whole run of contiguous pages instead of one page per
	// message. BatchPages caps the run length of a single request; 0 or
	// 1 caps it at one page — every page ships as its own request, with
	// the same per-page framing, through the same run-list protocol (a
	// model refinement: before batching existed, join traffic paid
	// transfer but no request framing, so pre-batching multi-node
	// virtual times are reproduced by a cap of one only up to that
	// framing term). BatchMsg is the fixed per-request overhead of a
	// transfer — MigrateMsg/4, the request cost demand paging has always
	// charged, so a run of one page costs exactly what an unbatched
	// fetch does — and what the message-passing baselines charge for the
	// same wire framing, which keeps the Figure 12-style comparisons fair
	// under batching.
	BatchPages int
	BatchMsg   int64
}

// DefaultCostModel returns the constants used throughout the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{
		Syscall:      2_000,
		PageCopy:     150,
		PageCompare:  4_096,
		PageAdopt:    150, // a pte move, like PageCopy — 27x cheaper than a byte compare
		ByteMerge:    2,
		MigrateMsg:   100_000, // ~50 µs round trip at 2 GIPS
		PageTransfer: 70_000,  // 4 KiB at ~1 Gb/s, ~35 µs
		TCPExtra:     2_000,
		BatchPages:   64,     // one request may carry a 256 KiB run
		BatchMsg:     25_000, // request framing, same as a per-page fetch
	}
}

// Config describes the simulated machine.
type Config struct {
	Nodes       int       // cluster size; 0 or 1 means a single machine
	CPUsPerNode int       // virtual CPUs per node; 0 means 1
	Cost        CostModel // zero value replaced by DefaultCostModel
	Console     *Console  // nil for a discard console
	Clock       ClockFunc // nil for a deterministic logical clock
	Rand        RandFunc  // nil for a fixed-seed generator
	// Deprecated: MergeWorkers is not read. It selected the width of a
	// parallel merge engine that no workload's merges ever reached (a
	// thread's delta fits one level-2 table); merges are one serial walk.
	// The field survives only because benchmark/layers.go and
	// benchmark/serve.go, frozen by BENCHMARK.json, still set it.
	MergeWorkers int
}

// Machine is the simulated hardware plus kernel state: a set of nodes, the
// cost model, and the I/O devices reachable only from the root space.
type Machine struct {
	cost    CostModel
	nodes   []*node
	console *Console
	clock   ClockFunc
	rand    RandFunc
	// frames recycles the pages and tables the machine's spaces free; every
	// space's memory and snapshot, restored ones included, draws on it.
	frames *vm.Frames

	wg   sync.WaitGroup // all space goroutines ever started
	root *Space

	// restored marks a machine whose root tree was loaded by Restore;
	// the next Run resumes it instead of creating a fresh root. broken
	// poisons a machine whose devices were partially fast-forwarded by a
	// failed Restore: running it would be silently nondeterministic.
	restored bool
	broken   error
	// Device cursors: reads consumed from each device so far. They are
	// part of a checkpoint image — a restore fast-forwards the devices by
	// these counts so clock/entropy/console streams resume mid-log.
	devClock   int64
	devRand    int64
	devConsole int64
}

// node models one machine in the cluster: an identity for the migration
// protocol plus the virtual CPU width used for contention modelling.
type node struct {
	id   int
	cpus int
}

// vcpuPool models CPU contention among the children one collector joins
// on one node: earliest-free virtual times, one per CPU. Pools belong to
// the collecting space and are consulted only from its own goroutine in
// program order, so assignments are deterministic by construction.
// Independent subtrees collecting concurrently each get their own pool —
// an optimistic list-scheduling bound that trades some cross-subtree
// contention accuracy for schedule-independence (the package comment's
// virtual-time paragraph states the model).
type vcpuPool struct {
	free []int64
}

// schedule places an execution segment of the given duration, wanting to
// begin at earliest, onto the least-loaded virtual CPU, returning the
// completion time.
func (p *vcpuPool) schedule(earliest, dur int64) int64 {
	best := 0
	for i, f := range p.free {
		if f < p.free[best] {
			best = i
		}
	}
	start := max64(earliest, p.free[best])
	p.free[best] = start + dur
	return start + dur
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// New constructs a simulated machine.
func New(cfg Config) *Machine {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.CPUsPerNode <= 0 {
		cfg.CPUsPerNode = 1
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Console == nil {
		cfg.Console = NewConsole(nil, nil)
	}
	if cfg.Clock == nil {
		cfg.Clock = LogicalClock()
	}
	if cfg.Rand == nil {
		cfg.Rand = SeededRand(1)
	}
	m := &Machine{
		cost:    cfg.Cost,
		console: cfg.Console,
		clock:   cfg.Clock,
		rand:    cfg.Rand,
		frames:  vm.NewFrames(),
	}
	for i := 0; i < cfg.Nodes; i++ {
		m.nodes = append(m.nodes, &node{id: i, cpus: cfg.CPUsPerNode})
	}
	return m
}

// NetStats counts the cross-node protocol traffic one space initiated:
// migrations, page-run requests and delta shipments it was charged for.
// Like virtual time the counts are deterministic — they depend only on
// program behaviour and the cost model, never on host scheduling — which
// is what lets the cluster experiments assert on them. Single-node
// machines perform no cross-node traffic and always report zeros.
type NetStats struct {
	Msgs  int64 // protocol messages (round trips) initiated
	Pages int64 // pages moved across the wire
}

// RunResult describes a completed root program.
type RunResult struct {
	Status Status   // StatusHalted normally, a trap status otherwise
	Err    error    // trap cause, if any
	Ret    uint64   // root's Regs.Ret value at halt
	VT     int64    // root space's final virtual time
	Insns  int64    // instructions executed by the root space itself
	Net    NetStats // cross-node traffic the root space itself initiated
}

// Run creates the root space on node 0 and executes prog in it, blocking
// until the root halts and every descendant space has stopped. The root is
// the only space with device access. A Machine may be Run once.
func (m *Machine) Run(prog Prog, arg uint64) RunResult {
	m.Start(prog, arg)
	return m.Wait()
}

// Start is the launching half of Run: it creates the root space on node 0
// (or adopts the tree a Restore rebuilt) and sets prog running in it,
// without waiting. The caller owns the rendezvous from here on — a root
// program that blocks on the caller's behalf (a session parked at a phase
// barrier) keeps the whole machine live until it returns — and must call
// Wait exactly once to collect the result and release the machine's
// goroutines. A Machine may be started once.
func (m *Machine) Start(prog Prog, arg uint64) {
	if m.broken != nil {
		panic(fmt.Sprintf("kernel: Machine.Start on a machine poisoned by a failed restore: %v", m.broken))
	}
	var root *Space
	if m.restored {
		// Restore rebuilt the root tree; resume it with the new entry.
		// Virtual time, instruction and traffic counters continue from
		// their checkpointed values.
		root = m.root
		m.restored = false
		root.regs.Entry = prog
		root.regs.Arg = arg
	} else {
		if m.root != nil {
			panic("kernel: Machine started twice")
		}
		root = newSpace(m, nil, 0, m.nodes[0], m.frames.NewSpace())
		root.residentHere()
		root.regs = Regs{Entry: prog, Arg: arg}
		m.root = root
	}
	root.start(0)
}

// Wait blocks until the root started by Start halts or traps and every
// descendant space has stopped, then reports the root's result. No space
// goroutine of the machine outlives Wait, and no frame of its memory: the
// pages and tables go to the depot of cleared frames the next machine
// draws on (release).
func (m *Machine) Wait() RunResult {
	root := m.root
	root.waitStopped()
	res := RunResult{
		Status: root.status,
		Err:    root.trapErr,
		Ret:    root.regs.Ret,
		VT:     root.vt,
		Insns:  root.insns,
		Net:    root.net,
	}
	m.shutdown()
	m.release()
	return res
}

// shutdown aborts every parked space goroutine so that no goroutines leak
// once the root program has halted. Spaces still running are waited for.
func (m *Machine) shutdown() {
	if m.root != nil {
		m.root.abortTree()
	}
	m.wg.Wait()
}

// release frees every space's memory and snapshot, so that every frame
// the machine made is back in its pool, and hands the pool's frames to
// the depot (vm.Frames.Release). It runs after shutdown: no space
// goroutine is left, and nothing reads the machine's memory again.
func (m *Machine) release() {
	m.root.free()
	m.frames.Release()
}

// KernelError reports misuse of the syscall API (the real kernel would
// deliver a fault to the offending space).
type KernelError struct {
	Op  string
	Msg string
}

func (e *KernelError) Error() string { return fmt.Sprintf("kernel: %s: %s", e.Op, e.Msg) }

func kerr(op, format string, args ...any) error {
	return &KernelError{Op: op, Msg: fmt.Sprintf(format, args...)}
}

// Child reference encoding (§3.3): the high bits of a child number select
// the node the child lives on; 0 selects the caller's home node.
const (
	nodeShift = 16
	// MaxChildIndex is the largest per-node child index.
	MaxChildIndex = 1<<nodeShift - 1
)

// ChildOn encodes a child reference naming child idx on cluster node n
// (0-based machine node index). ChildOn(homeRelative...) semantics: a zero
// node field always means the caller's home node, so this helper encodes
// absolute node n as field n+1.
func ChildOn(nodeIdx int, idx uint64) uint64 {
	return uint64(nodeIdx+1)<<nodeShift | (idx & MaxChildIndex)
}

// splitChildRef decodes a child reference relative to sp: the node field
// (0 = sp's home node, k = machine node k-1) and the per-node child index.
func (sp *Space) splitChildRef(ref uint64) (*node, uint64, error) {
	field := ref >> nodeShift
	idx := ref & MaxChildIndex
	if field == 0 {
		return sp.home, idx, nil
	}
	n := int(field) - 1
	if n >= len(sp.m.nodes) {
		return nil, 0, kerr("childref", "node %d out of range (cluster has %d)", n, len(sp.m.nodes))
	}
	return sp.m.nodes[n], idx, nil
}

// pageSet tracks page residency and per-node read-only caches for the
// migration protocol's cost model. The zero value is an empty set; all
// marks every page present except those later removed.
type pageSet struct {
	all    bool
	except map[vm.Addr]struct{}
	pages  map[vm.Addr]struct{}
}

func newPageSet(all bool) *pageSet { return &pageSet{all: all} }

func (s *pageSet) has(p vm.Addr) bool {
	if s.all {
		_, ex := s.except[p]
		return !ex
	}
	_, ok := s.pages[p]
	return ok
}

func (s *pageSet) add(p vm.Addr) {
	if s.all {
		delete(s.except, p)
		return
	}
	if s.pages == nil {
		s.pages = make(map[vm.Addr]struct{})
	}
	s.pages[p] = struct{}{}
}

func (s *pageSet) remove(p vm.Addr) {
	if s.all {
		if s.except == nil {
			s.except = make(map[vm.Addr]struct{})
		}
		s.except[p] = struct{}{}
		return
	}
	delete(s.pages, p)
}

func (s *pageSet) clone() *pageSet {
	c := &pageSet{all: s.all}
	if len(s.except) > 0 {
		c.except = make(map[vm.Addr]struct{}, len(s.except))
		for k := range s.except {
			c.except[k] = struct{}{}
		}
	}
	if len(s.pages) > 0 {
		c.pages = make(map[vm.Addr]struct{}, len(s.pages))
		for k := range s.pages {
			c.pages[k] = struct{}{}
		}
	}
	return c
}
