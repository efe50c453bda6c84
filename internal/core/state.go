package core

// Runtime state export/attach: the core-layer half of checkpoint/restore.
//
// An RT's kernel-visible state (the shared region's bytes, every
// thread's replica and snapshot) lives in the machine image; what the
// kernel cannot see is the runtime's own bookkeeping — the deterministic
// allocator cursor and the thread-placement table. ExportState captures
// exactly that, and Attach rebuilds a runtime over a restored root environment.
//
// Go-side addresses (the values Alloc returned before the checkpoint)
// cannot be serialized, but they do not need to be: allocation is a
// deterministic bump pointer, so a resumed program re-derives every
// address by replaying its allocation calls. Attach therefore starts the
// cursor at the region base, runs the caller's layout function, checks
// the replay stayed within the recorded cursor, and then restores the
// recorded cursor so any later (phase-time) allocations continue exactly
// where the checkpointed run's would.

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// RTState is the serializable bookkeeping of one RT.
type RTState struct {
	Base   vm.Addr
	Size   uint64
	Next   vm.Addr     // allocator cursor at export time
	Placed map[int]int // thread id -> concrete home node (ForkOn placements)
}

// StateError reports an RTState that cannot be attached (or a layout
// replay that diverged from the recorded allocation history).
type StateError struct {
	Field string
	Msg   string
}

func (e *StateError) Error() string { return fmt.Sprintf("core: attach %s: %s", e.Field, e.Msg) }

// DelegateRefs returns the kernel child references of the delegate
// collectors this runtime has used, in ascending node order. Delegates
// are permanently parked command loops, so a machine checkpoint must
// name them explicitly (kernel.CheckpointOpts.AllowParked); they restore
// as restartable spaces and the first post-restore command reloads them.
func (rt *RT) DelegateRefs() []uint64 {
	nodes := make([]int, 0, len(rt.delegates))
	for n := range rt.delegates {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	refs := make([]uint64, 0, len(nodes))
	for _, n := range nodes {
		refs = append(refs, rt.delegates[n].ref)
	}
	return refs
}

// ExportState captures the runtime's bookkeeping. Call it only at a
// quiescent point — no live (un-joined, un-halted) threads — which is
// also the only point a machine checkpoint can be taken.
func (rt *RT) ExportState() RTState {
	st := RTState{Base: rt.base, Size: rt.size, Next: rt.next}
	if len(rt.placed) > 0 {
		st.Placed = make(map[int]int, len(rt.placed))
		for id, n := range rt.placed {
			st.Placed[id] = n
		}
	}
	return st
}

// Attach rebuilds a runtime over env from exported state. layout, if
// non-nil, re-runs the program's deterministic allocation sequence (or a
// prefix of it) to re-derive Go-side addresses; the shared region's
// bytes come from the restored memory image and are not touched. The
// runtime restarts with no delegates on record: their spaces' memory and
// snapshots were restored by the kernel, and the first command to each
// reloads its command loop, so the first post-restore collection that
// spans nodes re-arms them at unchanged virtual-time cost.
func Attach(env *kernel.Env, st RTState, layout func(rt *RT)) (*RT, error) {
	// Accept exactly the regions New produces: a table-aligned base and a
	// non-zero whole number of tables inside the address space. Every
	// Start's region copy relies on it to take the kernel's table-sharing
	// path, so anything else (a crafted image) must stop here, as a typed
	// error.
	if uint64(st.Base)%vm.TableSpan != 0 || st.Size == 0 || st.Size%vm.TableSpan != 0 ||
		st.Size > vm.SpaceSize-uint64(st.Base) {
		return nil, &StateError{Field: "region", Msg: fmt.Sprintf("bad shared region %#x+%#x", st.Base, st.Size)}
	}
	if uint64(st.Next) < uint64(st.Base) || uint64(st.Next) > uint64(st.Base)+st.Size {
		return nil, &StateError{Field: "cursor", Msg: fmt.Sprintf("allocator cursor %#x outside region", st.Next)}
	}
	rt := &RT{env: env, base: st.Base, size: st.Size, next: st.Base}
	if layout != nil {
		layout(rt)
	}
	if uint64(rt.next) > uint64(st.Next) {
		return nil, &StateError{Field: "layout", Msg: fmt.Sprintf(
			"layout replay allocated past the checkpointed cursor (%#x > %#x); "+
				"Layout must replay a prefix of the original allocation sequence", rt.next, st.Next)}
	}
	rt.next = st.Next
	for id, n := range st.Placed {
		if err := rt.checkPlacement(n, id); err != nil {
			return nil, &StateError{Field: "placement", Msg: fmt.Sprintf("thread %d on node %d: %v", id, n, err)}
		}
		rt.record(n, id)
	}
	return rt, nil
}
