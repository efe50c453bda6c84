package kernel

// Machine checkpoint/restore: a versioned serialization of a stopped,
// quiescent space tree — the mid-run persistence the paper's fault
// tolerance story assumes ("logging a computation's explicit inputs is
// sufficient to replay it"; a checkpoint bounds how much of the log a
// replay must re-execute).
//
// The image captures everything the deterministic results of the rest of
// a run depend on:
//
//   - every space's memory and merge snapshot, through the vm forest
//     encoder, preserving the COW sharing graph — which is all merges,
//     incremental snapshots and copy charges read to tell what changed —
//     so they behave identically after a restore;
//   - per-space virtual time, instruction counts, argument/result
//     registers, migration residency (the §3.3 read-only page caches),
//     cross-node traffic counters and virtual-CPU pool occupancy;
//   - the machine's device cursors — how many clock, entropy and console
//     reads the run has consumed — so a restore fast-forwards the
//     configured (deterministic or replayed) devices to the exact point
//     the checkpoint was taken: the trace is spliced, not replayed from
//     the start.
//
// What the image deliberately does not capture is Go control flow: entry
// points are functions and parked goroutine stacks cannot be serialized.
// A checkpoint therefore requires the tree to be quiescent — every space
// stopped, none suspended mid-execution except those the caller
// explicitly names (the runtime's delegate collectors, which are
// re-created from their registers) — and a restored space carries no
// entry point until its parent loads one, exactly like a space cloned by
// the Tree option. The supported idiom is the session layer's: programs
// are phased, a checkpoint happens at a phase barrier, and the resumed
// program re-forks its workers from restored memory.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/imgenc"
	"repro/internal/vm"
)

// CheckpointVersion is the current machine-image format version.
const CheckpointVersion = 1

const checkpointMagic = "DCKP"

// NotQuiescentError reports a Checkpoint attempted while some space was
// suspended mid-execution (parked at a Ret or instruction-limit trap)
// without being listed in CheckpointOpts.AllowParked. Its Go stack
// cannot be serialized, so the checkpoint is refused.
type NotQuiescentError struct {
	Ref    uint64 // the space's reference in its parent's namespace
	Status Status
}

func (e *NotQuiescentError) Error() string {
	return fmt.Sprintf("kernel: checkpoint: space %#x suspended mid-execution (%v); "+
		"checkpoint at a quiescent point", e.Ref, e.Status)
}

// BadImageError reports a structurally invalid, truncated or corrupted
// checkpoint image.
type BadImageError struct {
	Offset int
	Msg    string
}

func (e *BadImageError) Error() string {
	return fmt.Sprintf("kernel: bad checkpoint image at byte %d: %s", e.Offset, e.Msg)
}

// ImageVersionError reports a checkpoint image written by a newer format
// version than this decoder understands.
type ImageVersionError struct {
	Version byte
	Max     byte
}

func (e *ImageVersionError) Error() string {
	return fmt.Sprintf("kernel: checkpoint image version %d not supported (max %d)",
		e.Version, e.Max)
}

// ImageMismatchError reports a Restore onto a machine whose configuration
// differs from the checkpointed one; virtual times would diverge, so the
// restore is refused.
type ImageMismatchError struct {
	Field   string
	Image   string // value recorded in the image
	Machine string // value of the restoring machine
}

func (e *ImageMismatchError) Error() string {
	return fmt.Sprintf("kernel: checkpoint %s mismatch: image has %s, machine has %s",
		e.Field, e.Image, e.Machine)
}

// CheckpointOpts configures a Checkpoint.
type CheckpointOpts struct {
	// AllowParked lists direct children of the root that may be suspended
	// mid-execution at checkpoint time. They are serialized as
	// never-started spaces (memory, snapshot and counters intact, entry
	// point dropped) and must be given fresh registers before their next
	// start — the contract the runtime's delegate collectors already
	// satisfy, since every delegate command reloads its command loop.
	AllowParked []uint64
}

// spaceFlags bits in the per-space record.
const (
	sfHasSnap   = 1 << 0
	sfAccounted = 1 << 1
	sfHasErr    = 1 << 2
)

// Checkpoint serializes the calling space's entire subtree — for the
// root, the whole machine. Only the root may checkpoint (it is the only
// space that sees the devices whose cursors the image must include).
//
// Checkpoint is a pure observation: it charges no virtual time, moves no
// state, and leaves every space exactly as it found it, so a run that
// checkpoints is bit-identical — checksums, conflicts, virtual times —
// to one that does not. It blocks until every descendant has stopped,
// like the rendezvous half of Put/Get.
func (e *Env) Checkpoint(o CheckpointOpts) ([]byte, error) {
	sp := e.sp
	if sp.parent != nil {
		return nil, kerr("checkpoint", "only the root space may checkpoint")
	}
	allowed := make(map[uint64]bool, len(o.AllowParked))
	for _, r := range o.AllowParked {
		// Normalize through the same node-field resolution lookupChild
		// uses, so home-relative and absolute references agree.
		node, idx, err := sp.splitChildRef(r)
		if err != nil {
			return nil, err
		}
		allowed[uint64(node.id+1)<<nodeShift|idx] = true
	}

	enc := vm.NewForestEncoder()
	var b []byte
	b = append(b, checkpointMagic...)
	b = append(b, CheckpointVersion)
	b = sp.m.encodeConfig(b)
	tree, err := sp.encodeTree(enc, allowed, true)
	if err != nil {
		return nil, err
	}
	forest := enc.Encode()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tree)))
	b = append(b, tree...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(forest)))
	b = append(b, forest...)
	return imgenc.Seal(b), nil
}

// Footprint reports how much memory the machine pins: the distinct
// level-2 tables of every space and merge snapshot plus the distinct pages
// they back, at least 1 for any machine that has touched memory. It is
// root-only, like Checkpoint, and a call from any other space faults it.
// Like Checkpoint it is a pure observation that blocks until every
// descendant has stopped, but it walks nothing: once they have, the
// machine's frame pool holds every frame no space references, so the
// frames it has out (vm.Frames.Live) are the count. It is what a live
// session costs while it rests, read in O(1) without making it leave the
// machine.
func (e *Env) Footprint() int {
	e.requireRoot("footprint")
	e.sp.waitTree()
	return e.sp.m.frames.Live()
}

// waitTree waits for every descendant of sp to stop.
func (sp *Space) waitTree() {
	for _, child := range sp.children {
		child.waitStopped()
		child.waitTree()
	}
}

// encodeConfig emits the machine-identity section: the knobs virtual
// time depends on (validated at restore) plus the device cursors.
func (m *Machine) encodeConfig(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.nodes)))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.nodes[0].cpus))
	var flags byte // bit 0 marked the retired uncached mode; never set
	if m.cost.TCPLike {
		flags |= 2
	}
	b = append(b, flags)
	for _, v := range []int64{
		m.cost.Syscall, m.cost.PageCopy, m.cost.PageCompare, m.cost.PageAdopt,
		m.cost.ByteMerge, m.cost.MigrateMsg, m.cost.PageTransfer, m.cost.TCPExtra,
		int64(m.cost.BatchPages), m.cost.BatchMsg,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(m.devClock))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.devRand))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.devConsole))
	return b
}

// encodeTree serializes sp's subtree record (depth-first, children in
// ascending reference order), registering memory and snapshots with the
// forest encoder. isRoot marks the calling space, which is running by
// definition and serializes as restartable.
func (sp *Space) encodeTree(enc *vm.ForestEncoder, allowed map[uint64]bool, isRoot bool) ([]byte, error) {
	status, parked := sp.execStatus()
	if parked && !isRoot && !(sp.parent != nil && sp.parent.parent == nil && allowed[sp.ref]) {
		return nil, &NotQuiescentError{Ref: sp.ref, Status: status}
	}
	var b []byte
	recStatus := status
	if isRoot || parked {
		// No serializable continuation: restart from fresh registers.
		recStatus = StatusNever
	}
	b = append(b, byte(recStatus))
	var flags byte
	if sp.snap != nil {
		flags |= sfHasSnap
	}
	if sp.accounted {
		flags |= sfAccounted
	}
	if sp.trapErr != nil {
		flags |= sfHasErr
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(sp.home.id))
	b = binary.LittleEndian.AppendUint32(b, uint32(sp.node.id))
	b = binary.LittleEndian.AppendUint64(b, sp.regs.Arg)
	b = binary.LittleEndian.AppendUint64(b, sp.regs.Ret)
	for _, v := range []int64{sp.insns, sp.vt, sp.startVT, sp.segBlocked,
		sp.net.Msgs, sp.net.Pages} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	if sp.trapErr != nil {
		// Trap causes serialize as their message only: error types are Go
		// values and cannot cross the image. A program that re-reads a
		// crashed child's ChildInfo.Err after a resume sees a plain error
		// with the same text; typed inspection (errors.As) of pre-existing
		// trap causes does not survive a checkpoint. Errors surfaced
		// *during* post-resume execution (conflicts, crashes in resumed
		// phases) are fresh values and keep their types.
		b = appendString(b, sp.trapErr.Error())
	}
	memIdx := enc.Add(sp.mem)
	snapIdx := ^uint32(0)
	if sp.snap != nil {
		snapIdx = uint32(enc.Add(sp.snap))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(memIdx))
	b = binary.LittleEndian.AppendUint32(b, snapIdx)

	// Virtual-CPU pools, sorted by node id, free times in slot order.
	poolIDs := make([]int, 0, len(sp.pools))
	for id := range sp.pools {
		poolIDs = append(poolIDs, id)
	}
	sort.Ints(poolIDs)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(poolIDs)))
	for _, id := range poolIDs {
		p := sp.pools[id]
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p.free)))
		for _, f := range p.free {
			b = binary.LittleEndian.AppendUint64(b, uint64(f))
		}
	}

	b = sp.encodeResidency(b)

	refs := make([]uint64, 0, len(sp.children))
	for ref := range sp.children {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(refs)))
	for _, ref := range refs {
		child := sp.children[ref]
		child.waitStopped()
		b = binary.LittleEndian.AppendUint64(b, ref)
		cb, err := child.encodeTree(enc, allowed, false)
		if err != nil {
			return nil, err
		}
		b = append(b, cb...)
	}
	return b, nil
}

// execStatus reads the space's stop status and whether a goroutine is
// parked inside it, under the state lock.
func (sp *Space) execStatus() (Status, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.status, sp.parked
}

// encodeResidency emits the migration residency state: the per-node
// read-only caches, then a fetched-set byte naming the one resident on
// the space's current node — kind 0 for a space without caches (a single
// node), kind 1 and the current node's id otherwise. Kind 2, the
// standalone set of a retired uncached mode, is never written and is
// refused at restore.
func (sp *Space) encodeResidency(b []byte) []byte {
	ids := make([]int, 0, len(sp.caches))
	for id := range sp.caches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
		b = appendPageSet(b, sp.caches[id])
	}
	if sp.caches == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.LittleEndian.AppendUint32(b, uint32(sp.node.id))
}

func appendPageSet(b []byte, s *pageSet) []byte {
	var all byte
	if s.all {
		all = 1
	}
	b = append(b, all)
	m := s.pages
	if s.all {
		m = s.except
	}
	addrs := make([]vm.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(addrs)))
	for _, a := range addrs {
		b = binary.LittleEndian.AppendUint32(b, a)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// --- restore -----------------------------------------------------------------

func badImage(off int, msg string) error { return &BadImageError{Offset: off, Msg: msg} }

// configSectionLen is the size of the fixed machine-identity section
// encodeConfig emits: node count, cpus, flags, ten cost-model fields
// and three device cursors.
const configSectionLen = 4 + 4 + 1 + 10*8 + 3*8

// sections is the one walker of a machine image's layout: it verifies
// the envelope and cuts the payload into the fixed-size config section,
// the length-prefixed tree section and — in a full image; SplitImage's
// metadata half ends before it — the length-prefixed forest section.
// head is the payload up to where the forest section starts.
func sections(img []byte, full bool) (config, tree, forest, head []byte, err error) {
	r, err := imgenc.Open(img, checkpointMagic, CheckpointVersion, badImage,
		func(v byte) error { return &ImageVersionError{Version: v, Max: CheckpointVersion} })
	if err != nil {
		return nil, nil, nil, nil, err
	}
	config = r.Take(configSectionLen)
	tree = r.Bytes()
	head = r.B[:r.Off]
	if full {
		forest = r.Bytes()
	}
	return config, tree, forest, head, r.Done()
}

// Restore loads a checkpoint image into a freshly constructed machine,
// rebuilding the root space tree and fast-forwarding the configured
// devices to the recorded cursors. The machine must have been built with
// a configuration matching the image (*ImageMismatchError otherwise) and
// must not have Run yet; the next Run resumes the restored root instead
// of creating a fresh one. The supplied Prog receives the restored tree
// and is responsible for continuing from the state its memory records.
//
// Restore mutates nothing until the whole image has decoded and
// validated, so a machine that rejected an image is still pristine and
// may Run (or Restore a different image). The device fast-forward is
// the one mutating step; if it fails part-way — console input shorter
// than the checkpoint cursor — the machine's device state is no longer
// the pristine initial one, so the machine is poisoned: any later Run
// panics rather than silently producing a nondeterministic run.
func (m *Machine) Restore(data []byte) error {
	if m.root != nil {
		return kerr("restore", "machine already has a root (Restore before Run)")
	}
	if m.broken != nil {
		return kerr("restore", "machine poisoned by an earlier failed restore: %v", m.broken)
	}
	config, tree, forest, _, err := sections(data, true)
	if err != nil {
		return err
	}
	devClock, devRand, devConsole, err := m.decodeConfig(&imgenc.Reader{B: config, Wrap: badImage})
	if err != nil {
		return err
	}
	spaces, err := m.frames.DecodeForest(forest)
	if err != nil {
		return &BadImageError{Msg: fmt.Sprintf("memory forest: %v", err)}
	}
	tr := &imgenc.Reader{B: tree, Wrap: badImage}
	root := m.decodeTree(tr, nil, 0, spaces)
	if err := tr.Done(); err != nil {
		for _, s := range spaces {
			s.Free() // back to the pool, which counts what the machine pins
		}
		return err
	}
	// Everything decoded and validated; only now touch machine state.
	if err := m.fastForward(devClock, devRand, devConsole); err != nil {
		m.broken = err
		return err
	}
	m.root = root
	m.restored = true
	return nil
}

// decodeConfig parses the machine-identity section and validates it
// against m, returning the recorded device cursors. It is read-only: no
// machine state changes until the whole image has decoded.
func (m *Machine) decodeConfig(r *imgenc.Reader) (devClock, devRand, devConsole int64, err error) {
	nodes := int(r.U32())
	cpus := int(r.U32())
	flags := r.U8()
	var cost CostModel
	cost.TCPLike = flags&2 != 0
	for _, f := range []*int64{
		&cost.Syscall, &cost.PageCopy, &cost.PageCompare, &cost.PageAdopt,
		&cost.ByteMerge, &cost.MigrateMsg, &cost.PageTransfer, &cost.TCPExtra,
	} {
		*f = r.I64()
	}
	cost.BatchPages = int(r.I64())
	cost.BatchMsg = r.I64()
	devClock, devRand, devConsole = r.I64(), r.I64(), r.I64()
	if devClock < 0 || devRand < 0 || devConsole < 0 {
		// fastForward would skip its loops and store the value as the
		// machine's cursor; no checkpoint ever recorded one.
		r.Failf("negative device cursor (clock %d, rand %d, console %d)", devClock, devRand, devConsole)
	}
	if err := r.Done(); err != nil { // the section and encodeConfig's output are both configSectionLen bytes
		return 0, 0, 0, err
	}
	mismatch := func(field, img, mach string) error {
		return &ImageMismatchError{Field: field, Image: img, Machine: mach}
	}
	switch {
	case nodes != len(m.nodes):
		err = mismatch("node count", fmt.Sprint(nodes), fmt.Sprint(len(m.nodes)))
	case cpus != m.nodes[0].cpus:
		err = mismatch("CPUs per node", fmt.Sprint(cpus), fmt.Sprint(m.nodes[0].cpus))
	case flags&1 != 0:
		err = mismatch("read-only page cache", "disabled", "enabled")
	case cost != m.cost:
		err = mismatch("cost model", fmt.Sprintf("%+v", cost), fmt.Sprintf("%+v", m.cost))
	}
	return devClock, devRand, devConsole, err
}

// fastForward consumes and discards device readings up to the recorded
// cursors, so the next read the program issues sees exactly what the
// uninterrupted run saw.
func (m *Machine) fastForward(devClock, devRand, devConsole int64) error {
	for i := int64(0); i < devClock; i++ {
		m.clock()
	}
	for i := int64(0); i < devRand; i++ {
		m.rand()
	}
	if devConsole > 0 {
		buf := make([]byte, 4096)
		remaining := devConsole
		// The console is a polled device: a 0-byte read legally means "no
		// input pending yet", so tolerate a bounded number of empty reads
		// (as trace's skipReader does) before declaring the source
		// genuinely shorter than the checkpoint cursor.
		empty := 0
		for remaining > 0 {
			n := int64(len(buf))
			if n > remaining {
				n = remaining
			}
			got := m.console.read(buf[:n])
			if got == 0 {
				if empty++; empty >= 100 {
					return kerr("restore", "console input exhausted %d bytes before the checkpoint cursor", remaining)
				}
				continue
			}
			empty = 0
			remaining -= int64(got)
		}
	}
	m.devClock, m.devRand, m.devConsole = devClock, devRand, devConsole
	return nil
}

// decodeTree rebuilds one space record and, recursively, its children.
func (m *Machine) decodeTree(r *imgenc.Reader, parent *Space, ref uint64, spaces []*vm.Space) *Space {
	status := Status(r.U8())
	flags := r.U8()
	homeID := int(r.U32())
	nodeID := int(r.U32())
	if r.Err != nil {
		return nil
	}
	if homeID >= len(m.nodes) || nodeID >= len(m.nodes) {
		r.Failf("node id out of range")
		return nil
	}
	sp := newSpace(m, parent, ref, m.nodes[homeID], nil) // memory follows below
	sp.node = m.nodes[nodeID]
	sp.status = status
	sp.accounted = flags&sfAccounted != 0
	sp.regs.Arg = r.U64()
	sp.regs.Ret = r.U64()
	sp.insns = r.I64()
	sp.vt = r.I64()
	sp.startVT = r.I64()
	sp.segBlocked = r.I64()
	sp.net.Msgs = r.I64()
	sp.net.Pages = r.I64()
	if flags&sfHasErr != 0 {
		sp.trapErr = errors.New(r.Str())
	}
	memIdx := int(r.U32())
	snapIdx := r.U32()
	if r.Err != nil {
		return nil
	}
	if memIdx >= len(spaces) {
		r.Failf("memory index %d out of range", memIdx)
		return nil
	}
	sp.mem = spaces[memIdx]
	if flags&sfHasSnap != 0 {
		if int(snapIdx) >= len(spaces) {
			r.Failf("snapshot index %d out of range", snapIdx)
			return nil
		}
		sp.snap = spaces[snapIdx]
	}

	nPools := int(r.U16())
	for i := 0; i < nPools && r.Err == nil; i++ {
		id := int(r.U32())
		p := &vcpuPool{free: make([]int64, r.Count16(8, "pool slot"))}
		for j := range p.free {
			p.free[j] = r.I64()
		}
		if sp.pools == nil {
			sp.pools = make(map[int]*vcpuPool)
		}
		sp.pools[id] = p
	}

	if !m.decodeResidency(r, sp) {
		return nil
	}

	nChildren := r.Count(8, "child") // a child is its reference and its record
	for i := 0; i < nChildren && r.Err == nil; i++ {
		cref := r.U64()
		child := m.decodeTree(r, sp, cref, spaces)
		if child == nil {
			return nil
		}
		if sp.children == nil {
			sp.children = make(map[uint64]*Space)
		}
		sp.children[cref] = child
	}
	if r.Err != nil {
		return nil
	}
	return sp
}

// decodeResidency rebuilds the migration residency state. The fetched-set
// byte must name the space's current node's cache, or be kind 0 beside no
// caches at all. A multi-node space recorded with no caches comes from an
// image written while a space that had not migrated yet tracked nothing,
// every page counting as resident: it is restored with its current
// node's cache holding everything.
func (m *Machine) decodeResidency(r *imgenc.Reader, sp *Space) bool {
	nCaches := int(r.U16())
	for i := 0; i < nCaches && r.Err == nil; i++ {
		id := int(r.U32())
		set := readPageSet(r)
		if r.Err != nil {
			return false
		}
		if sp.caches == nil {
			sp.caches = make(map[int]*pageSet)
		}
		sp.caches[id] = set
	}
	switch kind := r.U8(); kind {
	case 0:
		if sp.caches != nil {
			r.Failf("caches recorded without a fetched set")
			return false
		}
		sp.residentHere()
	case 1:
		id := int(r.U32())
		if r.Err != nil {
			return false
		}
		if id != sp.node.id {
			r.Failf("fetched set names cache %d, not current node %d", id, sp.node.id)
			return false
		}
		if sp.caches[id] == nil {
			r.Failf("fetched set names missing cache %d", id)
			return false
		}
	default:
		r.Failf("bad fetched-set kind %d", kind)
	}
	return r.Err == nil
}

func readPageSet(r *imgenc.Reader) *pageSet {
	s := &pageSet{all: r.U8() != 0}
	for n := r.Count(4, "page set entry"); n > 0; n-- {
		a := vm.Addr(r.U32())
		if s.all {
			if s.except == nil {
				s.except = make(map[vm.Addr]struct{})
			}
			s.except[a] = struct{}{}
		} else {
			if s.pages == nil {
				s.pages = make(map[vm.Addr]struct{})
			}
			s.pages[a] = struct{}{}
		}
	}
	return s
}
