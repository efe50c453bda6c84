package kernel

import (
	"repro/internal/vm"
)

// Env is a space's execution environment: its private memory, instruction
// accounting, and the three system calls. It is the only capability user
// code receives, which is what lets the kernel enforce determinism even on
// adversarial programs — there is nothing else to reach for.
//
// Memory accessors fault (terminating the space with StatusFault) on
// access violations, mirroring processor traps; they do not return errors.
// Each accessor also advances the instruction counter by one tick per
// eight bytes touched, so memory-bound work is charged to virtual time
// without manual ticking — all but Peek and PeekU32Stride, which charge
// nothing.
type Env struct {
	sp *Space
}

// --- identity and registers -------------------------------------------------

// Arg returns the argument word loaded into this space's registers.
func (e *Env) Arg() uint64 { return e.sp.regs.Arg }

// SetRet stores a result word in this space's registers, where the parent
// can read it with Get(Regs) — the EAX-on-exit convention.
func (e *Env) SetRet(v uint64) { e.sp.regs.Ret = v }

// IsRoot reports whether this is the root space (the only space with
// device access).
func (e *Env) IsRoot() bool { return e.sp.parent == nil }

// HomeNodeID reports the node the space was created on.
func (e *Env) HomeNodeID() int { return e.sp.home.id }

// Nodes reports the cluster size.
func (e *Env) Nodes() int { return len(e.sp.m.nodes) }

// Insns returns the number of instructions this space has executed.
func (e *Env) Insns() int64 { return e.sp.insns }

// VT returns the space's virtual clock. The value is deterministic (it
// depends only on program behaviour and the cost model), so exposing it
// does not break determinism; the evaluation harness reads it through the
// root space.
func (e *Env) VT() int64 { return e.sp.vt }

// NetStats reports the cross-node protocol traffic this space has
// initiated so far — deterministic for the same reason VT is. The
// cluster experiments read it through the collector to show the
// per-node delegate collectors cutting the root's message count from
// O(threads) to O(nodes).
func (e *Env) NetStats() NetStats { return e.sp.net }

// --- instruction accounting --------------------------------------------------

// Tick advances the instruction counter by n, modelling n instructions of
// computation. If an instruction limit is armed and the counter crosses
// it, the space traps back to its parent (StatusInsnLimit) and resumes
// here when restarted.
func (e *Env) Tick(n int64) { e.sp.tick(n) }

// tick is Tick. The park is kept out of line (preempt) so that tick is
// small enough to inline into every memory accessor's prologue.
func (sp *Space) tick(n int64) {
	sp.insns += n
	sp.vt += n
	if sp.insns >= sp.limit {
		sp.preempt()
	}
}

// preempt parks the space at its instruction limit unless a NoPreempt
// section holds it off.
//
//go:noinline
func (sp *Space) preempt() {
	if sp.critical == 0 {
		sp.park(StatusInsnLimit)
	}
}

// NoPreempt runs f with instruction-limit preemption suppressed, then
// re-checks the limit. The deterministic scheduler uses it to make
// synchronization primitives atomic with respect to quantum expiry (the
// paper's kernel achieves this by resuming preempted primitives inside
// the master space; with native code we instead exclude the preemption
// point, which is equivalent because preemption can only happen at ticks).
func (e *Env) NoPreempt(f func()) {
	sp := e.sp
	sp.critical++
	defer func() {
		sp.critical--
		if sp.insns >= sp.limit {
			sp.preempt()
		}
	}()
	f()
}

// --- system calls -------------------------------------------------------------

// Put performs state operations on a child space and optionally starts it
// (Table 1/2). It blocks until the child is stopped.
func (e *Env) Put(ref uint64, o PutOpts) error { return e.sp.put(ref, o) }

// Get performs state operations that move child state toward the parent,
// blocking until the child is stopped. A merge conflict is returned as a
// *vm.MergeConflictError.
func (e *Env) Get(ref uint64, o GetOpts) (ChildInfo, error) { return e.sp.get(ref, o) }

// Ret stops the calling space and returns control to its parent; the
// space resumes here when the parent next issues a Put with Start.
func (e *Env) Ret() {
	e.sp.chargeVT(e.sp.m.cost.Syscall)
	e.sp.park(StatusRet)
}

// Halt stops the calling space permanently by unwinding its program.
func (e *Env) Halt() { panic(haltSignal{}) }

type haltSignal struct{}

// --- memory -------------------------------------------------------------------

// access accounts for one load or store of size bytes at addr before it
// happens: the memory tick, then, on a space that tracks residency, the
// demand-paging cost of the pages it touches. A span that runs past the
// top of the address space faults here, before demand paging would walk
// (and charge for) its wrapped image.
func (e *Env) access(addr vm.Addr, size int, write bool) {
	e.sp.tick(int64(size+7) / 8)
	e.fault(vm.CheckSpan(addr, size))
	if e.sp.caches != nil {
		e.sp.touchPages(addr, size, write)
	}
}

func (e *Env) fault(err error) {
	if err == nil {
		return
	}
	panic(err)
}

// Read copies memory from the space into p, faulting on access violations.
func (e *Env) Read(addr vm.Addr, p []byte) {
	e.access(addr, len(p), false)
	e.fault(e.sp.mem.Read(addr, p))
}

// ReadRuns reads [addr, addr+size) for a caller that folds the bytes
// instead of keeping them, without materialising demand-zero memory. It
// is Read in every accounted respect — one memory tick and one
// demand-paging pass over the whole span, a fault at the first page that
// lacks PermR — so virtual time, instruction counts and NetStats advance
// exactly as a Read of the same span would. The bytes arrive in address
// order as page-granular runs: zeros(n) stands for n bytes of readable
// pages with no backing page, found by a page-table query alone, and
// data(b) carries at most one page of everything else, in place where the
// load hit test admits it (vm.Space.View) and copied by Read otherwise;
// b is only valid during the call, and data must not write it.
func (e *Env) ReadRuns(addr vm.Addr, size int, data func(b []byte), zeros func(n int)) {
	e.access(addr, size, false)
	for size > 0 {
		n := int(e.sp.mem.ZeroRun(addr, uint64(size)))
		if n > 0 {
			zeros(n)
		} else {
			n = min(size, vm.PageSize-int(addr&(vm.PageSize-1)))
			b := e.sp.mem.View(addr, n)
			if b == nil { // a page Read faults on: View admits every other
				b = make([]byte, n)
				e.fault(e.sp.mem.Read(addr, b))
			}
			data(b)
		}
		addr += vm.Addr(n)
		size -= n
	}
}

// Write copies p into the space's memory, faulting on access violations.
func (e *Env) Write(addr vm.Addr, p []byte) {
	e.access(addr, len(p), true)
	e.fault(e.sp.mem.Write(addr, p))
}

// ReadU32 loads a little-endian uint32.
func (e *Env) ReadU32(addr vm.Addr) uint32 {
	e.access(addr, 4, false)
	v, err := e.sp.mem.ReadU32(addr)
	e.fault(err)
	return v
}

// WriteU32 stores a little-endian uint32.
func (e *Env) WriteU32(addr vm.Addr, v uint32) {
	e.access(addr, 4, true)
	e.fault(e.sp.mem.WriteU32(addr, v))
}

// ReadU64 loads a little-endian uint64.
func (e *Env) ReadU64(addr vm.Addr) uint64 {
	e.access(addr, 8, false)
	v, err := e.sp.mem.ReadU64(addr)
	e.fault(err)
	return v
}

// WriteU64 stores a little-endian uint64.
func (e *Env) WriteU64(addr vm.Addr, v uint64) {
	e.access(addr, 8, true)
	e.fault(e.sp.mem.WriteU64(addr, v))
}

// ReadF64 loads a float64.
func (e *Env) ReadF64(addr vm.Addr) float64 {
	e.access(addr, 8, false)
	v, err := e.sp.mem.ReadF64(addr)
	e.fault(err)
	return v
}

// WriteF64 stores a float64.
func (e *Env) WriteF64(addr vm.Addr, v float64) {
	e.access(addr, 8, true)
	e.fault(e.sp.mem.WriteF64(addr, v))
}

// ReadU32s bulk-loads little-endian uint32s.
func (e *Env) ReadU32s(addr vm.Addr, dst []uint32) {
	e.access(addr, 4*len(dst), false)
	e.fault(e.sp.mem.ReadU32s(addr, dst))
}

// ReadU32Stride loads dst[i] from addr+i*stride — one field of a table of
// records — and is accounted exactly as len(dst) calls of ReadU32 in index
// order: the loop below is its definition. When no tick of the batch can
// park the space (no limit armed, preemption suppressed, or the limit lies
// beyond the batch) and every page is resident, the same ticks are charged
// at once around one pass over the pages; an access that faults has been
// charged for, and the ones after it have not, as in the loop.
func (e *Env) ReadU32Stride(addr, stride vm.Addr, dst []uint32) {
	sp, n := e.sp, int64(len(dst))
	if sp.caches != nil || (sp.critical == 0 && sp.insns+n >= sp.limit) {
		for i := range dst {
			dst[i] = e.ReadU32(addr + vm.Addr(i)*stride)
		}
		return
	}
	loaded, err := sp.mem.ReadU32Stride(addr, stride, dst)
	if err != nil {
		n = int64(loaded) + 1
	}
	e.Tick(n)
	e.fault(err)
}

// Peek copies memory from the space into p as Read does, faulting at the
// same address on the same violations, but charges nothing: no tick, no
// demand paging, no NetStats, so a later access is charged as if the Peek
// never happened. It is the one exception to "every accessor ticks", for
// a host-side cache of the space's own bytes whose content, never its
// warmth, may decide what the program observes (docs/determinism-rules.md).
func (e *Env) Peek(addr vm.Addr, p []byte) { e.fault(e.sp.mem.Read(addr, p)) }

// PeekU32Stride is ReadU32Stride uncharged, as Peek is Read.
func (e *Env) PeekU32Stride(addr, stride vm.Addr, dst []uint32) {
	_, err := e.sp.mem.ReadU32Stride(addr, stride, dst)
	e.fault(err)
}

// WriteU32s bulk-stores little-endian uint32s.
func (e *Env) WriteU32s(addr vm.Addr, src []uint32) {
	e.access(addr, 4*len(src), true)
	e.fault(e.sp.mem.WriteU32s(addr, src))
}

// ReadF64s bulk-loads float64s.
func (e *Env) ReadF64s(addr vm.Addr, dst []float64) {
	e.access(addr, 8*len(dst), false)
	e.fault(e.sp.mem.ReadF64s(addr, dst))
}

// WriteF64s bulk-stores float64s.
func (e *Env) WriteF64s(addr vm.Addr, src []float64) {
	e.access(addr, 8*len(src), true)
	e.fault(e.sp.mem.WriteF64s(addr, src))
}

// SetPerm adjusts page permissions within the space's own memory: the
// analogue of the runtime's self-management of its address space layout.
func (e *Env) SetPerm(addr vm.Addr, size uint64, perm vm.Perm) {
	e.fault(e.sp.mem.SetPerm(addr, size, perm))
}

// Zero zero-fills a page-aligned range of the space's own memory.
func (e *Env) Zero(addr vm.Addr, size uint64, perm vm.Perm) {
	e.fault(e.sp.mem.Zero(addr, size, perm))
}

// --- devices (root space only, §3.1) -------------------------------------------

// requireRoot faults a non-root space that calls a root-only op: a
// device, or the machine's footprint.
func (e *Env) requireRoot(op string) {
	if !e.IsRoot() {
		panic(kerr(op, "root-only call from a non-root space"))
	}
}

// ConsoleRead reads available console input (root only): one read of
// the host source into p, so it returns at most len(p) bytes, and 0 when
// no input is pending; the caller decides how to wait.
func (e *Env) ConsoleRead(p []byte) int {
	e.requireRoot("console-read")
	n := e.sp.m.console.read(p)
	e.sp.m.devConsole += int64(n)
	return n
}

// ConsoleWrite writes console output (root only).
func (e *Env) ConsoleWrite(p []byte) {
	e.requireRoot("console-write")
	e.sp.m.console.write(p)
}

// ClockNow reads the machine's clock device (root only): an explicit
// nondeterministic input in the sense of §2.1.
func (e *Env) ClockNow() int64 {
	e.requireRoot("clock")
	e.sp.m.devClock++
	return e.sp.m.clock()
}

// RandUint64 reads the machine's entropy device (root only).
func (e *Env) RandUint64() uint64 {
	e.requireRoot("rand")
	e.sp.m.devRand++
	return e.sp.m.rand()
}
