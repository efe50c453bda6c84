// Package fs implements Determinator's user-level shared file system
// abstraction (§4.2–4.3 of the paper): every process holds a complete
// replica of a logically shared, weakly consistent file system inside its
// own address space, so the kernel's copy-on-write fork clones it for
// free. Processes operate only on their private replica; at
// synchronization points (wait, explicit sync) the parent runtime
// reconciles a child's replica into its own using per-file versioning
// in the style of Parker et al.'s mutual-inconsistency detection:
//
//   - entries changed on only one side propagate to the other;
//   - entries changed on both sides conflict — the runtime keeps the
//     parent's copy and marks the entry conflicted, failing later opens;
//   - append-only files (console, logs) merge by concatenating both
//     sides' appended tails, so concurrent logging never conflicts.
//
// The on-"disk" format is a byte image (superblock, inode table, one or
// more extent regions) manipulated exclusively through the owning
// space's Env accessors: the file system is ordinary user-space memory,
// which is exactly what makes it replicable, and also why a wild pointer
// write can corrupt it — a trade-off the paper acknowledges (see
// SetProtect).
//
// Beyond the paper's prototype — which had a flat 16-entry root
// directory and never reclaimed extents, a leak its authors document —
// this implementation adds:
//
//   - directories: inodes carry a parent-ino field, names are path
//     components, and Mkdir/ReadDir operate on slash-separated
//     paths. Reconciliation is keyed by full path, so directory entries
//     propagate, conflict and merge per-entry exactly the way file
//     bytes do.
//   - an extent free list: Unlink, Truncate and extent growth return
//     space to a sorted, coalescing free list in the superblock page,
//     and allocation is deterministic best-fit before bump-allocating.
//   - Compact: a pass intended for synchronization points (after
//     StampFork/ReconcileFrom quiesce, when no child replica is
//     outstanding) that rewrites all live extents in inode order and
//     zeroes everything else, so every replica that performs the same
//     operation history computes a bit-identical image.
//   - image growth: when the current regions are exhausted the image
//     extends itself by mapping a fresh region chained from the
//     superblock's region table, making ErrNoSpace a soft limit up to
//     the configured maximum (FormatGrowable).
//
// The file system remains memory-only (no persistence) and
// single-writer per replica, like the paper's.
package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Image geometry. All offsets are relative to the FS base address.
const (
	// Magic identifies a formatted image (v2: directories + free list +
	// chained regions).
	Magic = 0xD37F5002

	// DefaultBase is where the uproc runtime places the FS image: a
	// 4 MiB-aligned address far from the shared-memory region.
	DefaultBase vm.Addr = 0x8000_0000
	// DefaultSize is the default image size (the paper's "file system
	// size limited by address space" constraint, in miniature).
	DefaultSize uint64 = 16 << 20

	// NumInodes is the fixed number of inode slots (slot 0 is the root
	// directory).
	NumInodes = 128
	// MaxNameLen is the longest single path component, including the
	// terminating NUL.
	MaxNameLen = 96

	inodeSize  = 128
	inodeTable = vm.PageSize // inode table starts at page 1
	dataStart  = inodeTable + NumInodes*inodeSize

	// GrowChunk is the minimum size of a chained region added when the
	// image grows (requests larger than a chunk get a region big enough
	// to hold them).
	GrowChunk = 1 << 20

	// Superblock field offsets (all uint32, page 0).
	sbMagic     = 0
	sbCursor    = 4  // extent bump cursor (relative to base)
	sbSize      = 8  // currently mapped image size
	sbMaxSize   = 12 // growth ceiling (== sbSize for fixed images)
	sbFreeCount = 16 // live entries in the free table
	sbAllocs    = 20 // extent allocations ever made
	sbReused    = 24 // allocations served from the free list
	sbReusedKB  = 28 // bytes so served, in KiB units to defer wrap
	sbGrows     = 32 // chained regions added
	sbCompacts  = 36 // Compact passes run
	sbRegions   = 40 // entries in the region table
	sbDropped   = 44 // free extents leaked to free-table overflow
	sbGen       = 48 // namespace generation: bumped whenever the (dir, name) → inode map changes

	// regionTable holds up to maxRegions {start,size} pairs describing
	// the chained regions; region 0 is the one Format laid out.
	regionTable = 64
	maxRegions  = 64

	// freeTable holds up to maxFree {off,len} pairs, sorted by offset,
	// filling the rest of the superblock page.
	freeTable = regionTable + maxRegions*8
	maxFree   = (int(vm.PageSize) - freeTable) / 8

	// regionMagic begins the header page of every chained (grown)
	// region, forming a verifiable chain from the superblock.
	regionMagic = 0xD37FAE91

	// Inode field offsets.
	iFlags       = 0
	iVersion     = 4
	iForkVersion = 8
	iSize        = 12
	iForkSize    = 16
	iExtOff      = 20
	iExtCap      = 24
	iParent      = 28
	iName        = 32
)

// Inode flag bits. A slot is in use if it is live or a tombstone;
// tombstones record deletions so that reconciliation can propagate them.
// Unlike the paper's prototype, tombstone slots can be reclaimed — and
// their names scrubbed — by Compact at a quiescent synchronization point.
const (
	flagExists     = 1 << 0 // live entry
	flagAppendOnly = 1 << 1
	flagConflict   = 1 << 2
	flagTomb       = 1 << 3 // deleted since some earlier version
	flagDir        = 1 << 4 // directory
)

// Errors returned by the file API.
var (
	ErrNotFound    = errors.New("fs: file not found")
	ErrExists      = errors.New("fs: file already exists")
	ErrConflict    = errors.New("fs: file has unresolved reconciliation conflict")
	ErrNoSpace     = errors.New("fs: image full")
	ErrNameTaken   = errors.New("fs: no free inode")
	ErrBadName     = errors.New("fs: invalid file name")
	ErrBadOffset   = errors.New("fs: offset out of range")
	ErrIsDir       = errors.New("fs: is a directory")
	ErrNotDir      = errors.New("fs: not a directory")
	ErrDirNotEmpty = errors.New("fs: directory not empty")
)

// FS is a handle on a file system image within the calling space's own
// memory. It holds no authoritative state outside the image itself
// (except the write-protection flag), so any number of handles may be
// attached to the same image; image size and allocation state live in
// the superblock, where replication picks them up for free.
//
// The handle does keep one pure cache: a per-directory entry index
// (dir, name) → inode, so lookups stop scanning the whole inode table
// per path component. The image's namespace generation (sbGen, bumped
// by every operation that changes the map, through any handle) guards
// it: a handle whose cached generation is stale rebuilds the index from
// the table before trusting it, which keeps multiple handles on one
// image coherent. The rebuild reads through Env.Peek and charges
// nothing, so the cache never shows in virtual time: a lookup costs the
// same on a warm handle, a fresh one and one attached after restore.
// The generation is part of the operation history, so replicas that
// performed the same operations still produce bit-identical images.
type FS struct {
	env     *kernel.Env
	base    vm.Addr
	protect bool

	idx    map[dirent]int // cached (dir, name) → inode, nil until built
	idxGen uint32         // sbGen the cache was built/maintained at
}

// dirent keys the per-directory entry index.
type dirent struct {
	dir  int
	name string
}

// nsMutate records a change to the (dir, name) → inode map: the image
// generation is bumped, invalidating every other handle's cache. This
// handle's own cache, if it was current, has the change applied in
// place (apply runs with f.idx non-nil) and stays valid — a handle
// alternating mutations and lookups keeps O(1) lookups instead of
// rebuilding per mutation. A cache already stale (some other handle
// mutated in between) is dropped for rebuild.
func (f *FS) nsMutate(apply func()) {
	cur := f.gu32(sbGen)
	f.pu32(sbGen, cur+1)
	if f.idx != nil && f.idxGen == cur {
		apply()
		f.idxGen = cur + 1
	} else {
		f.idx = nil
	}
}

// SetProtect enables the hardening §4.2 suggests: the image is kept
// read-only between file system operations, so a wild pointer write in a
// buggy program faults instead of silently corrupting the file system —
// restoring the Unix property that corruption requires calling write().
func (f *FS) SetProtect(on bool) {
	f.protect = on
	if on {
		f.env.SetPerm(f.base, f.size(), vm.PermR)
	} else {
		f.env.SetPerm(f.base, f.size(), vm.PermRW)
	}
}

// unlock temporarily re-enables writes for one operation; the returned
// function restores protection over the image's then-current extent
// (the operation may have grown it).
func (f *FS) unlock() func() {
	if !f.protect {
		return func() {}
	}
	f.env.SetPerm(f.base, f.size(), vm.PermRW)
	return func() { f.env.SetPerm(f.base, f.size(), vm.PermR) }
}

// Format initializes an empty fixed-size image at base and returns a
// handle, mapping (and zeroing) [base, base+size) itself.
func Format(env *kernel.Env, base vm.Addr, size uint64) *FS {
	return FormatGrowable(env, base, size, size)
}

// FormatGrowable initializes an empty image of the given initial size
// that may grow, in chained regions, up to maxSize — the paper's
// fixed-image ErrNoSpace becomes a soft limit. The image maps its own
// pages, at format time and whenever it grows.
func FormatGrowable(env *kernel.Env, base vm.Addr, size, maxSize uint64) *FS {
	size = roundPages(size)
	maxSize = roundPages(maxSize)
	if size < dataStart+vm.PageSize {
		panic(fmt.Sprintf("fs: image size %d below minimum %d", size, dataStart+vm.PageSize))
	}
	if maxSize < size {
		maxSize = size
	}
	// Image geometry lives in uint32 superblock fields: a 4 GiB ceiling
	// would silently truncate to 0 and make every write fail ErrNoSpace.
	if maxSize >= 1<<32 {
		panic(fmt.Sprintf("fs: image ceiling %d must be below 4 GiB", maxSize))
	}
	// The fresh image's namespace is empty at generation 0 (the zeroed
	// sbGen), so the handle's index starts current: the first lookup
	// rebuilds nothing.
	f := &FS{env: env, base: base, idx: map[dirent]int{}, idxGen: 0}
	// Map and zero the whole initial region: stale bytes from a previous
	// image must never read as inodes or free entries.
	env.Zero(base, size, vm.PermRW)
	f.pu32(sbMagic, Magic)
	f.pu32(sbCursor, dataStart)
	f.pu32(sbSize, uint32(size))
	f.pu32(sbMaxSize, uint32(maxSize))
	f.pu32(sbRegions, 1)
	f.pu32(regionTable+0, 0)
	f.pu32(regionTable+4, uint32(size))
	// Slot 0 is the root directory: always live, never reconciled.
	f.iPut(0, iFlags, flagExists|flagDir)
	f.iPut(0, iVersion, 1)
	f.iPut(0, iForkVersion, 1)
	return f
}

// Attach returns a handle on an existing image (after fork or exec).
// mapped is the span the caller knows to be addressable; the image's own
// recorded size must fit inside it, and every chained region header must
// check out, or the image is rejected as corrupt/foreign.
func Attach(env *kernel.Env, base vm.Addr, mapped uint64) (*FS, error) {
	f := &FS{env: env, base: base}
	if f.gu32(sbMagic) != Magic {
		return nil, fmt.Errorf("fs: no image at %#x", base)
	}
	size := f.gu32(sbSize)
	if uint64(size) > mapped {
		return nil, fmt.Errorf("fs: image claims %d bytes but only %d are mapped", size, mapped)
	}
	if size%vm.PageSize != 0 {
		return nil, fmt.Errorf("fs: image size %d is not whole pages", size)
	}
	n := int(f.gu32(sbRegions))
	if n < 1 || n > maxRegions {
		return nil, fmt.Errorf("fs: corrupt region count %d", n)
	}
	end := uint32(0)
	for i := 0; i < n; i++ {
		start := f.gu32(uint32(regionTable + i*8))
		rsize := f.gu32(uint32(regionTable + i*8 + 4))
		if start != end || rsize == 0 {
			return nil, fmt.Errorf("fs: region %d not chained (start %d, prev end %d)", i, start, end)
		}
		// The table is image bytes: a region is bounded by the size the
		// caller vouched for before its header is dereferenced, or a wild
		// entry faults the attaching space instead of failing the attach.
		if uint64(start)+uint64(rsize) > uint64(size) {
			return nil, fmt.Errorf("fs: region %d [%d,+%d) outside the image's %d bytes", i, start, rsize, size)
		}
		if i > 0 && (rsize < vm.PageSize || f.gu32(start) != regionMagic || f.gu32(start+4) != uint32(i)) {
			return nil, fmt.Errorf("fs: region %d header missing", i)
		}
		end = start + rsize
	}
	if end != size {
		return nil, fmt.Errorf("fs: regions cover %d bytes, superblock says %d", end, size)
	}
	// Allocation state must point into the chain too: a damaged cursor
	// would panic on the first allocation, and damaged free entries
	// would hand out extents on top of the metadata pages — the wild
	// writes this layer otherwise guards against.
	regs := f.regions()
	if !insideDataArea(regs, f.gu32(sbCursor), 0) {
		return nil, fmt.Errorf("fs: bump cursor %d outside the region chain", f.gu32(sbCursor))
	}
	if int(f.gu32(sbFreeCount)) > maxFree {
		return nil, fmt.Errorf("fs: free table claims %d entries (max %d)", f.gu32(sbFreeCount), maxFree)
	}
	// Inode extents must point into the chain too: ReconcileFrom reads
	// a replica's extents directly, and a corrupt iExtOff would turn
	// into a machine fault mid-reconcile instead of this error. Both
	// columns are read in full before the first slot is judged: an
	// accepted image costs exactly what reading field by field did, a
	// rejected one has been charged for every slot, not only for those
	// up to the one that failed.
	var flags, caps [NumInodes]uint32
	f.column(iFlags, &flags)
	f.column(iExtCap, &caps)
	for ino := 1; ino < NumInodes; ino++ {
		fl, c := flags[ino], caps[ino]
		isFile := fl&flagExists != 0 && fl&flagDir == 0
		if !isFile && c != 0 {
			// Free slots are scrubbed, tombstones freed their extent,
			// directories never own one.
			return nil, fmt.Errorf("fs: inode %d holds an extent it cannot own", ino)
		}
		if isFile {
			if f.iGet(ino, iSize) > c {
				return nil, fmt.Errorf("fs: inode %d size exceeds extent capacity", ino)
			}
			if c != 0 && !insideDataArea(regs, f.iGet(ino, iExtOff), c) {
				return nil, fmt.Errorf("fs: inode %d extent [%d,+%d) outside the region chain",
					ino, f.iGet(ino, iExtOff), c)
			}
		}
	}
	prevEnd := uint32(0)
	for _, e := range f.readFreeList() {
		if e.length == 0 || !insideDataArea(regs, e.off, e.length) {
			return nil, fmt.Errorf("fs: free extent [%d,+%d) outside the region chain", e.off, e.length)
		}
		// The list must be sorted and disjoint: freeExtent's insertion
		// and coalescing assume it, and duplicated entries would hand
		// the same extent to two files.
		if e.off < prevEnd {
			return nil, fmt.Errorf("fs: free extent [%d,+%d) overlaps or disorders the free list", e.off, e.length)
		}
		prevEnd = e.off + e.length
	}
	return f, nil
}

// AttachRestored returns a handle on an image restored from a checkpoint
// without touching memory. Restore must be a pure observation — a
// resumed run's instruction counters must equal the uninterrupted run's
// — so the validating reads Attach performs are skipped here: the
// checkpoint CRC already established the image's integrity when it was
// decoded. Only use this on images that came back through the kernel's
// checkpoint/restore; for forked or foreign images use Attach.
func AttachRestored(env *kernel.Env, base vm.Addr) *FS {
	return &FS{env: env, base: base}
}

// insideDataArea reports whether [off, off+length) lies entirely within
// one region's allocatable span (length 0 checks the bare position).
func insideDataArea(regs []extent, off, length uint32) bool {
	for i, r := range regs {
		if off >= regionDataStart(i, r) && uint64(off)+uint64(length) <= uint64(r.off+r.length) {
			return true
		}
	}
	return false
}

// low-level image accessors (offsets relative to base)

func (f *FS) gu32(off uint32) uint32      { return f.env.ReadU32(f.base + vm.Addr(off)) }
func (f *FS) pu32(off uint32, v uint32)   { f.env.WriteU32(f.base+vm.Addr(off), v) }
func (f *FS) gbytes(off uint32, p []byte) { f.env.Read(f.base+vm.Addr(off), p) }
func (f *FS) pbytes(off uint32, p []byte) { f.env.Write(f.base+vm.Addr(off), p) }

func (f *FS) size() uint64 { return uint64(f.gu32(sbSize)) }

// maxSize reads the growth ceiling. Format records whole pages; a ceiling
// that is not is hostile bytes Attach does not read, and counts as the
// page boundary below it so growth never maps a ragged span.
func (f *FS) maxSize() uint64 { return uint64(f.gu32(sbMaxSize)) &^ (vm.PageSize - 1) }

func roundPages(n uint64) uint64 {
	return (n + vm.PageSize - 1) &^ uint64(vm.PageSize-1)
}

func inodeOff(ino int) uint32 { return uint32(inodeTable + ino*inodeSize) }

func (f *FS) iGet(ino int, field uint32) uint32    { return f.gu32(inodeOff(ino) + field) }
func (f *FS) iPut(ino int, field uint32, v uint32) { f.pu32(inodeOff(ino)+field, v) }

// column reads one field of every slot but the root's: col[ino] is what
// iGet(ino, field) returns, for ino 1…NumInodes-1, at the same charge as
// those 127 reads in slot order. A scan may take a field from a column
// only if it visits every slot and stores into no later slot's copy of
// that field; one that can stop early would be charged for slots it never
// read, and stays scalar (freeInode, dirHasLive).
func (f *FS) column(field uint32, col *[NumInodes]uint32) {
	f.env.ReadU32Stride(f.base+vm.Addr(inodeOff(1)+field), inodeSize, col[1:])
}

// inUse reports whether a slot holds a live entry or a tombstone. This
// is the single authoritative free-slot test: every iteration over the
// inode table goes through it, applies its mask to a column of flags, or
// applies a strictly narrower one, so a freed slot can never surface
// through lookup or List no matter what stale bytes its name field holds.
func (f *FS) inUse(ino int) bool {
	return f.iGet(ino, iFlags)&(flagExists|flagTomb) != 0
}

// freeSlot releases an inode slot, scrubbing the whole record — name
// included — so no later scan can observe a stale entry. The caller must
// already have released the slot's extent.
func (f *FS) freeSlot(ino int) {
	key := dirent{dir: int(f.iGet(ino, iParent)), name: f.name(ino)}
	var zero [inodeSize]byte
	f.pbytes(inodeOff(ino), zero[:])
	f.nsMutate(func() { delete(f.idx, key) })
}

func (f *FS) name(ino int) string {
	var buf [MaxNameLen]byte
	f.gbytes(inodeOff(ino)+iName, buf[:])
	return cstring(buf[:])
}

// cstring is a name field's text: the bytes before the first NUL, or all
// of them.
func cstring(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// setName names a freshly allocated slot. Callers set iParent first, so
// the index entry recorded here carries the slot's final key; an
// existing entry's name never changes.
func (f *FS) setName(ino int, name string) {
	var buf [MaxNameLen]byte
	copy(buf[:], name)
	f.pbytes(inodeOff(ino)+iName, buf[:])
	dir := int(f.iGet(ino, iParent))
	f.nsMutate(func() { f.idx[dirent{dir: dir, name: name}] = ino })
}

// pathOf reconstructs an entry's full path (no leading slash; "" is the
// root) by walking parent links. A link is image bytes Attach does not
// validate (a third column would add 127 reads to every attach), and a
// scan hands pathOf slots no lookup vouched for, so the link is bounded
// here, where it becomes an address: one that names no slot ends the walk
// as the root does.
func (f *FS) pathOf(ino int) string {
	var parts []string
	for depth := 0; ino != 0 && depth < NumInodes; depth++ {
		parts = append(parts, f.name(ino))
		p := f.iGet(ino, iParent)
		if p >= NumInodes {
			break
		}
		ino = int(p)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// splitPath validates a slash-separated path and returns its components.
// A leading slash is tolerated; empty, "." and ".." components are not.
func splitPath(path string) ([]string, error) {
	path = strings.TrimPrefix(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, c := range parts {
		if !validName(c) {
			return nil, ErrBadName
		}
	}
	return parts, nil
}

// validName reports whether c may be a path component.
func validName(c string) bool {
	return c != "" && c != "." && c != ".." && len(c) < MaxNameLen
}

// childIn finds the in-use slot for name directly under directory dir
// that satisfies want (a flag mask ANDed against the slot's flags), or
// -1. It is charged the sbGen read, then on a hit the hit's flags: the
// index maps (dir, name) to the one in-use slot, and the want mask is
// checked live on it. A rebuild in between charges nothing, so a lookup
// costs the same whether this handle's cache was warm, cold or stale.
func (f *FS) childIn(dir int, name string, want uint32) int {
	if gen := f.gu32(sbGen); f.idx == nil || f.idxGen != gen {
		f.rebuildIndex(gen)
	}
	ino, ok := f.idx[dirent{dir: dir, name: name}]
	if !ok || f.iGet(ino, iFlags)&want == 0 {
		return -1
	}
	return ino
}

// rebuildIndex scans the inode table once, through the uncharged Peek,
// and records every in-use entry under its (parent, name) key. A
// hostile image may hold two in-use slots under one key; the later slot
// wins, whichever handle builds the map.
func (f *FS) rebuildIndex(gen uint32) {
	f.idx = make(map[dirent]int)
	var flags [NumInodes]uint32
	f.env.PeekU32Stride(f.base+vm.Addr(inodeOff(1)+iFlags), inodeSize, flags[1:])
	for i := 1; i < NumInodes; i++ {
		if flags[i]&(flagExists|flagTomb) != 0 {
			var rec [inodeSize - iParent]byte // the parent link, then the name
			f.env.Peek(f.base+vm.Addr(inodeOff(i)+iParent), rec[:])
			f.idx[dirent{dir: int(binary.LittleEndian.Uint32(rec[:])), name: cstring(rec[iName-iParent:])}] = i
		}
	}
	f.idxGen = gen
}

// walkDirs resolves a chain of components as live directories, returning
// the final directory's inode.
func (f *FS) walkDirs(parts []string) (int, error) {
	dir := 0
	for _, c := range parts {
		ino := f.childIn(dir, c, flagExists)
		if ino < 0 {
			return -1, ErrNotFound
		}
		if f.iGet(ino, iFlags)&flagDir == 0 {
			return -1, ErrNotDir
		}
		dir = ino
	}
	return dir, nil
}

// resolveParent splits path into its parent directory (which must exist)
// and leaf component.
func (f *FS) resolveParent(path string) (int, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return -1, "", err
	}
	if len(parts) == 0 {
		return -1, "", ErrBadName // the root itself is not an entry
	}
	dir, err := f.walkDirs(parts[:len(parts)-1])
	if err != nil {
		return -1, "", err
	}
	return dir, parts[len(parts)-1], nil
}

// lookup finds the live entry at path, or -1.
func (f *FS) lookup(path string) int {
	dir, leaf, err := f.resolveParent(path)
	if err != nil {
		return -1
	}
	return f.childIn(dir, leaf, flagExists)
}

// lookupAny finds the live or tombstone entry at path, or -1. The
// parent chain is resolved through live directories only: a path under a
// deleted directory is gone.
func (f *FS) lookupAny(path string) int {
	dir, leaf, err := f.resolveParent(path)
	if err != nil {
		return -1
	}
	return f.childIn(dir, leaf, flagExists|flagTomb)
}

func (f *FS) freeInode() int {
	for i := 1; i < NumInodes; i++ {
		if !f.inUse(i) {
			return i
		}
	}
	return -1
}

// --- extent allocation: free list, bump cursor, chained growth ----------------

type extent struct{ off, length uint32 }

func (f *FS) readFreeList() []extent {
	n := int(f.gu32(sbFreeCount))
	if n <= 0 {
		return nil
	}
	if n > maxFree {
		n = maxFree
	}
	words := make([]uint32, 2*n)
	f.env.ReadU32s(f.base+vm.Addr(freeTable), words)
	list := make([]extent, n)
	for i := range list {
		list[i] = extent{words[2*i], words[2*i+1]}
	}
	return list
}

func (f *FS) writeFreeList(list []extent) {
	words := make([]uint32, 2*len(list))
	for i, e := range list {
		words[2*i], words[2*i+1] = e.off, e.length
	}
	if len(words) > 0 {
		f.env.WriteU32s(f.base+vm.Addr(freeTable), words)
	}
	f.pu32(sbFreeCount, uint32(len(list)))
}

// freeExtent returns [off, off+n) to the free list, coalescing with
// adjacent entries. On table overflow the smallest entry is dropped — a
// bounded, deterministic leak that the next Compact recovers anyway.
func (f *FS) freeExtent(off, n uint32) {
	if n == 0 {
		return
	}
	list := f.readFreeList()
	i := sort.Search(len(list), func(i int) bool { return list[i].off >= off })
	list = append(list, extent{})
	copy(list[i+1:], list[i:])
	list[i] = extent{off, n}
	if i+1 < len(list) && list[i].off+list[i].length == list[i+1].off {
		list[i].length += list[i+1].length
		list = append(list[:i+1], list[i+2:]...)
	}
	if i > 0 && list[i-1].off+list[i-1].length == list[i].off {
		list[i-1].length += list[i].length
		list = append(list[:i], list[i+1:]...)
	}
	if len(list) > maxFree {
		drop := 0
		for j := 1; j < len(list); j++ {
			if list[j].length < list[drop].length {
				drop = j
			}
		}
		list = append(list[:drop], list[drop+1:]...)
		f.pu32(sbDropped, f.gu32(sbDropped)+1)
	}
	f.writeFreeList(list)
}

func (f *FS) regions() []extent {
	n := int(f.gu32(sbRegions))
	words := make([]uint32, 2*n)
	f.env.ReadU32s(f.base+vm.Addr(regionTable), words)
	list := make([]extent, n)
	for i := range list {
		list[i] = extent{words[2*i], words[2*i+1]}
	}
	return list
}

// regionDataStart is where allocatable bytes begin within a region:
// after the fixed metadata for region 0, after the header page for
// chained regions.
func regionDataStart(index int, r extent) uint32 {
	if index == 0 {
		return dataStart
	}
	return r.off + vm.PageSize
}

// grow chains a fresh region onto the image, large enough for want
// bytes, reporting success. The new pages are mapped (and zeroed) by the
// image itself — the caller's address space is the disk.
func (f *FS) grow(want uint32) bool {
	size := f.size()
	maxSize := f.maxSize()
	n := int(f.gu32(sbRegions))
	if size >= maxSize || n >= maxRegions {
		return false
	}
	need := roundPages(uint64(want) + vm.PageSize) // payload + header page
	delta := need
	if delta < GrowChunk {
		delta = GrowChunk
	}
	if size+delta > maxSize {
		delta = maxSize - size
	}
	if delta < need {
		return false
	}
	f.env.Zero(f.base+vm.Addr(size), delta, vm.PermRW)
	start := uint32(size)
	f.pu32(start, regionMagic)
	f.pu32(start+4, uint32(n))
	f.pu32(start+8, start)
	f.pu32(uint32(regionTable+n*8), start)
	f.pu32(uint32(regionTable+n*8+4), uint32(delta))
	f.pu32(sbRegions, uint32(n+1))
	f.pu32(sbSize, uint32(size+delta))
	f.pu32(sbGrows, f.gu32(sbGrows)+1)
	return true
}

// allocExtent reserves capacity bytes: deterministic best-fit from the
// free list first (smallest sufficient entry, lowest offset on ties),
// then the bump cursor, growing the image when the current region is
// exhausted. Extents never span regions; a too-small region tail goes
// onto the free list.
func (f *FS) allocExtent(capacity uint32) (uint32, error) {
	list := f.readFreeList()
	best := -1
	for i, e := range list {
		if e.length >= capacity && (best < 0 || e.length < list[best].length) {
			best = i
		}
	}
	if best >= 0 {
		off := list[best].off
		if list[best].length == capacity {
			list = append(list[:best], list[best+1:]...)
		} else {
			list[best].off += capacity
			list[best].length -= capacity
		}
		f.writeFreeList(list)
		f.pu32(sbAllocs, f.gu32(sbAllocs)+1)
		f.pu32(sbReused, f.gu32(sbReused)+1)
		// Exact: capacities are whole pages (canonicalCap), so KiB
		// units lose nothing while keeping the counter wrap-proof.
		f.pu32(sbReusedKB, f.gu32(sbReusedKB)+capacity/1024)
		return off, nil
	}

	cur := f.gu32(sbCursor)
	regs := f.regions()
	ri := regionIndexOf(regs, cur)
	for {
		end := regs[ri].off + regs[ri].length
		if uint64(cur)+uint64(capacity) <= uint64(end) {
			break
		}
		// The cursor's region is exhausted (its remainder, if any, goes
		// to the free list): advance into the next region — after a
		// Compact the cursor may sit regions behind the chain's end —
		// growing the chain only once there is no next region.
		if ri+1 >= len(regs) {
			if !f.grow(capacity) {
				return 0, ErrNoSpace
			}
			regs = f.regions()
		}
		if end > cur {
			f.freeExtent(cur, end-cur)
		}
		ri++
		cur = regionDataStart(ri, regs[ri])
	}
	f.pu32(sbCursor, cur+capacity)
	f.pu32(sbAllocs, f.gu32(sbAllocs)+1)
	return cur, nil
}

// regionIndexOf locates the region whose allocatable span contains the
// bump cursor (a cursor at a region's very end still belongs to it).
func regionIndexOf(regs []extent, cur uint32) int {
	for i, r := range regs {
		if cur >= regionDataStart(i, r) && cur <= r.off+r.length {
			return i
		}
	}
	// A freshly formatted image starts at region 0's data area; the
	// cursor can never escape the chain.
	panic(fmt.Sprintf("fs: bump cursor %d outside every region", cur))
}

// canonicalCap is the deterministic extent capacity for a file of n
// bytes: the smallest power-of-two number of pages that holds it,
// clamped to the image's growth ceiling. Every replica computes the same
// capacity for the same size, which is what lets Compact lay out
// identical images everywhere.
func (f *FS) canonicalCap(n uint32) uint32 {
	if n == 0 {
		return 0
	}
	c := uint64(vm.PageSize)
	for c < uint64(n) {
		c *= 2
	}
	if m := f.maxSize(); c > m {
		c = m
	}
	return uint32(c)
}

// --- the file API -------------------------------------------------------------

// Create makes an empty regular file. Creating over a conflicted entry
// clears the conflict (the "fix the bug and re-run" recovery path).
func (f *FS) Create(path string) error { return f.create(path, 0) }

// CreateAppendOnly makes an empty append-only file: concurrent appends
// from different processes merge rather than conflict (§4.3). The
// runtime uses these for console and log streams.
func (f *FS) CreateAppendOnly(path string) error { return f.create(path, flagAppendOnly) }

// Mkdir makes an empty directory. Parent directories must already
// exist.
func (f *FS) Mkdir(path string) error { return f.create(path, flagDir) }

func (f *FS) create(path string, extra uint32) error {
	defer f.unlock()()
	dir, leaf, err := f.resolveParent(path)
	if err != nil {
		return err
	}
	_, err = f.createIn(dir, leaf, extra)
	return err
}

// createIn is create below a resolved parent directory; WriteFile and
// WriteFileAll reuse it where their walk meets a missing name, and
// reconciliation when adopting entries. It returns the entry's slot —
// with ErrExists, the live entry in the way.
func (f *FS) createIn(dir int, leaf string, extra uint32) (int, error) {
	if ino := f.childIn(dir, leaf, flagExists|flagTomb); ino >= 0 {
		fl := f.iGet(ino, iFlags)
		switch {
		case fl&flagTomb != 0:
			// Revive a deleted entry: keep the version history so the
			// re-creation reconciles as a change. Tombstones hold no
			// extent (deletion frees it), so the slot is clean. The
			// fork-time size is reset — the deletion severed any
			// relation to fork-time content, so for an append-only
			// file everything written from here counts as appended
			// (a stale fork size made mergeAppends drop or mis-slice
			// the revived content).
			f.iPut(ino, iFlags, flagExists|extra)
			f.iPut(ino, iSize, 0)
			f.iPut(ino, iForkSize, 0)
			f.bump(ino)
			return ino, nil
		case fl&flagConflict != 0:
			// Re-creating a conflicted entry resolves the conflict; the
			// old content's extent is returned to the free list, and
			// the fork-time size resets for the same reason as above.
			// A conflicted directory that still has live entries can
			// only be re-created as a directory (Mkdir clears the
			// flag): silently turning it into a file would orphan its
			// children behind an untraversable path.
			if fl&flagDir != 0 && extra&flagDir == 0 && f.dirHasLive(ino) {
				return -1, ErrDirNotEmpty
			}
			f.freeExtent(f.iGet(ino, iExtOff), f.iGet(ino, iExtCap))
			f.iPut(ino, iExtOff, 0)
			f.iPut(ino, iExtCap, 0)
			f.iPut(ino, iFlags, flagExists|extra)
			f.iPut(ino, iSize, 0)
			f.iPut(ino, iForkSize, 0)
			f.bump(ino)
			return ino, nil
		default:
			return ino, ErrExists
		}
	}
	ino := f.freeInode()
	if ino < 0 {
		return -1, ErrNameTaken
	}
	// The whole record is one store. Records are 128-byte aligned inside
	// the page-aligned table, so no record straddles a page: the store
	// lands whole or faults before writing a byte, and a slot can never be
	// left half-visible. Version 1; ForkVersion 0 makes a freshly created
	// entry count as "changed since fork", so it propagates to the parent
	// at reconciliation; sizes and extent are zero.
	var rec [inodeSize]byte
	binary.LittleEndian.PutUint32(rec[iFlags:], flagExists|extra)
	binary.LittleEndian.PutUint32(rec[iVersion:], 1)
	binary.LittleEndian.PutUint32(rec[iParent:], uint32(dir))
	copy(rec[iName:], leaf)
	f.pbytes(inodeOff(ino), rec[:])
	f.nsMutate(func() { f.idx[dirent{dir: dir, name: leaf}] = ino })
	return ino, nil
}

// bump marks the entry modified by this replica.
func (f *FS) bump(ino int) { f.iPut(ino, iVersion, f.iGet(ino, iVersion)+1) }

// tombstone turns a live entry into a deletion record, releasing its
// extent to the free list. The directory bit survives on the tombstone
// so reconciliation can order directory deletions after their contents'.
func (f *FS) tombstone(ino int) {
	f.freeExtent(f.iGet(ino, iExtOff), f.iGet(ino, iExtCap))
	f.iPut(ino, iExtOff, 0)
	f.iPut(ino, iExtCap, 0)
	f.iPut(ino, iFlags, flagTomb|(f.iGet(ino, iFlags)&flagDir))
	f.iPut(ino, iSize, 0)
	f.bump(ino)
}

// Unlink removes a file or empty directory, leaving a tombstone so the
// deletion propagates at reconciliation. Its extent — unlike the
// paper's prototype — goes straight back to the free list.
func (f *FS) Unlink(path string) error {
	defer f.unlock()()
	ino := f.lookup(path) // never 0: the root has no parent entry to match
	if ino < 0 {
		return ErrNotFound
	}
	if f.iGet(ino, iFlags)&flagDir != 0 && f.dirHasLive(ino) {
		return ErrDirNotEmpty
	}
	f.tombstone(ino)
	return nil
}

func (f *FS) dirHasLive(dir int) bool {
	for i := 1; i < NumInodes; i++ {
		if f.iGet(i, iFlags)&flagExists != 0 && int(f.iGet(i, iParent)) == dir {
			return true
		}
	}
	return false
}

// Info describes a file or directory.
type Info struct {
	Name       string // full path, no leading slash
	Size       int
	Version    uint32
	AppendOnly bool
	Conflicted bool
	Dir        bool
}

// Stat reports an entry's metadata. Conflicted entries can be statted
// (the conflict flag is how the caller finds out).
func (f *FS) Stat(path string) (Info, error) {
	ino := f.lookup(path)
	if ino < 0 {
		return Info{}, ErrNotFound
	}
	return f.statIno(ino), nil
}

func (f *FS) statIno(ino int) Info {
	fl := f.iGet(ino, iFlags)
	return Info{
		Name:       f.pathOf(ino),
		Size:       int(f.iGet(ino, iSize)),
		Version:    f.iGet(ino, iVersion),
		AppendOnly: fl&flagAppendOnly != 0,
		Conflicted: fl&flagConflict != 0,
		Dir:        fl&flagDir != 0,
	}
}

// List returns every live entry in the image (files and directories,
// the root excluded), sorted by path — a deterministic order, in
// keeping with §2.4: directory iteration must not leak timing.
func (f *FS) List() []Info {
	var out []Info
	var flags [NumInodes]uint32
	f.column(iFlags, &flags)
	for i := 1; i < NumInodes; i++ {
		if flags[i]&flagExists != 0 {
			out = append(out, f.statIno(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReadDir returns the live entries directly under path ("" or "/" for
// the root), sorted by name.
func (f *FS) ReadDir(path string) ([]Info, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	dir, err := f.walkDirs(parts)
	if err != nil {
		return nil, err
	}
	var out []Info
	var flags [NumInodes]uint32
	f.column(iFlags, &flags)
	for i := 1; i < NumInodes; i++ {
		if flags[i]&flagExists != 0 && int(f.iGet(i, iParent)) == dir {
			out = append(out, f.statIno(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// checkRange validates a byte-range request before any of the 32-bit
// on-image arithmetic can wrap: negative offsets and ranges whose end
// exceeds the image's growth ceiling are rejected up front. It returns
// the validated start and end as image-safe uint32s. Prior to this
// check, uint32(off) silently wrapped a negative offset to a huge one,
// letting a single bad WriteAt trample other files' extents — the exact
// failure mode SetProtect exists to prevent from outside the API,
// happening from inside it.
func (f *FS) checkRange(off, n int) (uint32, uint32, error) {
	limit := f.maxSize()
	if off < 0 || n < 0 || uint64(off) > limit {
		return 0, 0, ErrBadOffset
	}
	// off is now bounded by the image ceiling and n by a real slice
	// length, so the 64-bit sum cannot overflow.
	end := int64(off) + int64(n)
	if end > int64(limit) {
		return 0, 0, ErrBadOffset
	}
	return uint32(off), uint32(end), nil
}

// ensureCap grows a file's extent to hold at least n bytes, copying the
// current contents into the new extent and freeing the old one. Growth
// is computed in 64-bit space and capped at the image ceiling: the
// former uint32 doubling loop wrapped to zero — and spun forever — once
// a requested size crossed 2³¹.
func (f *FS) ensureCap(ino int, n uint32) error {
	cap0 := f.iGet(ino, iExtCap)
	if n <= cap0 {
		return nil
	}
	if uint64(n) > f.maxSize() {
		return ErrNoSpace // could never fit even in an empty image
	}
	newCap := f.canonicalCap(n)
	off, err := f.allocExtent(newCap)
	if err != nil {
		return err
	}
	size := f.iGet(ino, iSize)
	if size > 0 {
		buf := make([]byte, size)
		f.gbytes(f.iGet(ino, iExtOff), buf)
		f.pbytes(off, buf)
	}
	f.freeExtent(f.iGet(ino, iExtOff), cap0)
	f.iPut(ino, iExtOff, off)
	f.iPut(ino, iExtCap, newCap)
	return nil
}

// resolveFile looks up a live regular file for a data operation.
func (f *FS) resolveFile(path string) (int, error) {
	ino := f.lookup(path)
	if ino < 0 {
		return -1, ErrNotFound
	}
	if f.iGet(ino, iFlags)&flagDir != 0 {
		return -1, ErrIsDir
	}
	return ino, nil
}

// WriteAt writes p at byte offset off, growing the file as needed, and
// bumps the file's version. Offsets that are negative or whose end would
// exceed the image ceiling return ErrBadOffset before touching any byte.
func (f *FS) WriteAt(path string, off int, p []byte) error {
	defer f.unlock()()
	ino, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	return f.writeAt(ino, off, p)
}

// writeAt is the locked core of WriteAt and Append: the caller holds the
// write-protection window and has resolved the inode.
func (f *FS) writeAt(ino int, off int, p []byte) error {
	if f.iGet(ino, iFlags)&flagConflict != 0 {
		return ErrConflict
	}
	start, end, err := f.checkRange(off, len(p))
	if err != nil {
		return err
	}
	if err := f.ensureCap(ino, end); err != nil {
		return err
	}
	if size := f.iGet(ino, iSize); start > size {
		// Writing past EOF leaves a hole, which must read as zeros even
		// if the extent holds stale bytes from before a truncate.
		zero := make([]byte, start-size)
		f.pbytes(f.iGet(ino, iExtOff)+size, zero)
	}
	f.pbytes(f.iGet(ino, iExtOff)+start, p)
	if end > f.iGet(ino, iSize) {
		f.iPut(ino, iSize, end)
	}
	f.bump(ino)
	return nil
}

// Append writes p at end of file. The size lookup and the write happen
// as one operation under a single write-protection window.
func (f *FS) Append(path string, p []byte) error {
	defer f.unlock()()
	ino, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	return f.writeAt(ino, int(f.iGet(ino, iSize)), p)
}

// ReadAt reads up to len(p) bytes at offset off, returning the count.
// Negative offsets return ErrBadOffset (the old code wrapped them to
// huge ones and read other files' bytes).
func (f *FS) ReadAt(path string, off int, p []byte) (int, error) {
	ino, err := f.resolveFile(path)
	if err != nil {
		return 0, err
	}
	if f.iGet(ino, iFlags)&flagConflict != 0 {
		return 0, ErrConflict
	}
	if _, _, err := f.checkRange(off, 0); err != nil {
		return 0, err
	}
	size := int(f.iGet(ino, iSize))
	if off >= size {
		return 0, nil
	}
	n := len(p)
	if off+n > size {
		n = size - off
	}
	f.gbytes(f.iGet(ino, iExtOff)+uint32(off), p[:n])
	return n, nil
}

// ReadFile returns a file's full contents. The path is walked once.
func (f *FS) ReadFile(path string) ([]byte, error) {
	ino, err := f.resolveFile(path)
	if err != nil {
		return nil, err
	}
	if f.iGet(ino, iFlags)&flagConflict != 0 {
		return nil, ErrConflict
	}
	buf := make([]byte, f.iGet(ino, iSize))
	f.gbytes(f.iGet(ino, iExtOff), buf)
	return buf, nil
}

// WriteFile replaces a file's contents, creating it if needed. The path
// is walked once; the image is left exactly as Create (if the file was
// missing), Truncate to zero and WriteAt at offset zero leave it.
func (f *FS) WriteFile(path string, p []byte) error {
	defer f.unlock()()
	dir, leaf, err := f.resolveParent(path)
	if err != nil {
		return err
	}
	return f.writeFileIn(dir, leaf, p)
}

// WriteFileAll is WriteFile that also makes path's missing parent
// directories, on the same walk. Each parent ends as Mkdir leaves it —
// created, a tombstone revived, a conflicted entry re-created as an
// empty directory — and a live file among them is ErrNotDir. Components
// are checked as the walk reaches them, so parents made before a bad
// component stay made.
func (f *FS) WriteFileAll(path string, p []byte) error {
	defer f.unlock()()
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	dir, existed := 0, false
	for i, c := range parts {
		if !validName(c) {
			return ErrBadName
		}
		// A name is checked before its parent is entered, as splitPath
		// checks every name before walkDirs enters any.
		if existed && f.iGet(dir, iFlags)&flagDir == 0 {
			return ErrNotDir
		}
		if i == len(parts)-1 {
			break
		}
		ino, err := f.createIn(dir, c, flagDir)
		if existed = errors.Is(err, ErrExists); err != nil && !existed {
			return err
		}
		dir = ino
	}
	return f.writeFileIn(dir, parts[len(parts)-1], p)
}

// writeFileIn is WriteFile below a resolved parent directory: the leaf
// is looked up once, and the create, truncate and write act on its slot.
func (f *FS) writeFileIn(dir int, leaf string, p []byte) error {
	ino := f.childIn(dir, leaf, flagExists)
	switch {
	case ino < 0:
		var err error
		if ino, err = f.createIn(dir, leaf, 0); err != nil {
			return err
		}
	case f.iGet(ino, iFlags)&flagDir != 0:
		return ErrIsDir
	}
	if err := f.truncate(ino, 0); err != nil {
		return err
	}
	return f.writeAt(ino, 0, p)
}

// Truncate sets a file's size to n (growing zero-filled if needed).
// Shrinking returns the extent tail beyond the new canonical capacity to
// the free list; truncating to zero releases the extent entirely.
// Negative or ceiling-exceeding sizes return ErrBadOffset.
func (f *FS) Truncate(path string, n int) error {
	defer f.unlock()()
	ino, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	return f.truncate(ino, n)
}

// truncate is Truncate below a resolved file, under the caller's
// write-protection window.
func (f *FS) truncate(ino, n int) error {
	if f.iGet(ino, iFlags)&flagConflict != 0 {
		return ErrConflict
	}
	size, _, err := f.checkRange(n, 0)
	if err != nil {
		return err
	}
	if err := f.ensureCap(ino, size); err != nil {
		return err
	}
	if old := f.iGet(ino, iSize); size > old {
		zero := make([]byte, size-old)
		f.pbytes(f.iGet(ino, iExtOff)+old, zero)
	}
	if newCap := f.canonicalCap(size); newCap < f.iGet(ino, iExtCap) {
		off := f.iGet(ino, iExtOff)
		f.freeExtent(off+newCap, f.iGet(ino, iExtCap)-newCap)
		f.iPut(ino, iExtCap, newCap)
		if newCap == 0 {
			f.iPut(ino, iExtOff, 0)
		}
	}
	f.iPut(ino, iSize, size)
	f.bump(ino)
	return nil
}

// StampFork records, for every entry, the version and size at this
// moment. The runtime calls it in a child immediately after fork (and
// again after a two-way sync); reconciliation later compares both
// replicas against these recorded fork-time values to decide which side
// changed (the degenerate two-replica version vector of Parker et al.).
func (f *FS) StampFork() {
	defer f.unlock()()
	var flags [NumInodes]uint32
	f.column(iFlags, &flags)
	for i := 1; i < NumInodes; i++ {
		if flags[i]&(flagExists|flagTomb) == 0 {
			continue
		}
		f.iPut(i, iForkVersion, f.iGet(i, iVersion))
		f.iPut(i, iForkSize, f.iGet(i, iSize))
	}
}

// --- introspection ------------------------------------------------------------

// ImageSize reports the image's currently mapped extent in bytes.
func (f *FS) ImageSize() uint64 { return f.size() }

// GCStats reports the allocator's reuse and growth counters, which live
// in the superblock and are therefore per-replica and fully
// deterministic.
type GCStats struct {
	Allocs      int   // extent allocations ever made
	Reused      int   // allocations served from the free list
	ReusedBytes int64 // bytes so served
	FreeExtents int   // current free-list entries
	FreeBytes   int64 // bytes currently on the free list
	Grows       int   // chained regions added
	Compactions int   // Compact passes run
	Dropped     int   // free extents leaked to table overflow
}

// GC reads the current garbage-collection statistics.
func (f *FS) GC() GCStats {
	st := GCStats{
		Allocs:      int(f.gu32(sbAllocs)),
		Reused:      int(f.gu32(sbReused)),
		ReusedBytes: int64(f.gu32(sbReusedKB)) * 1024,
		Grows:       int(f.gu32(sbGrows)),
		Compactions: int(f.gu32(sbCompacts)),
		Dropped:     int(f.gu32(sbDropped)),
	}
	for _, e := range f.readFreeList() {
		st.FreeExtents++
		st.FreeBytes += int64(e.length)
	}
	return st
}

// FNV-1a 64 parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// checksumWindow is the span Checksum charges as one read. It is part
// of the image's virtual-time contract: ticks and remote page fetches
// are accounted per window, so changing it changes VT and NetStats.
const checksumWindow = 64 << 10

// Checksum hashes every byte of the image's mapped extent, superblock to
// last byte, with FNV-1a 64. After a Compact the image layout is
// canonical, so replicas that performed the same operation history
// produce identical checksums — the bit-determinism assertion the
// benchmarks lean on.
//
// The cost is O(backed pages), not O(image size). An FNV-1a step over a
// zero byte is h = (h ^ 0) * prime, so n consecutive zero bytes are the
// single multiplication h *= prime^n (mod 2^64) — exact, not an
// approximation. A page the image has mapped but never written has no
// backing page (Format and growth leave demand-zero ptes), so the page
// table alone says it holds 4096 zeros; Checksum jumps such runs without
// reading them and hashes only backed pages, in place. It only counts
// the zeros between two backed runs, across windows, and folds the count
// in once, when the next backed run or the end arrives. A backed page is
// mostly zeros too (inode table, superblock, the slack after a short
// file), and fnvFold jumps each run of zero 64-byte blocks by the same
// identity.
//
// What it charges is unchanged by the jump: the image is read in
// checksumWindow spans, each accounted (memory ticks, demand paging on a
// remote node, a fault on an unreadable page) exactly as one Read of
// that span.
func (f *FS) Checksum() uint64 {
	h, pending := uint64(fnvOffset64), uint64(0)
	data := func(b []byte) { h, pending = fnvFold(h*fnvPow(pending), b), 0 }
	zeros := func(n int) { pending += uint64(n) }
	size := f.size()
	for off := uint64(0); off < size; off += checksumWindow {
		n := min(size-off, checksumWindow)
		f.env.ReadRuns(f.base+vm.Addr(off), int(n), data, zeros)
	}
	return h * fnvPow(pending)
}

// fnvFold continues the FNV-1a hash h over b. Zero bytes only multiply,
// so a run of them is one multiplication by prime^n, made where the run
// ends; fnvFold takes b 64 bytes at a time, a block of zeros as such a
// run and any other block, and the tail, byte by byte.
func fnvFold(h uint64, b []byte) uint64 {
	var run uint64 // zero bytes passed over and not yet folded into h
	for len(b) > 0 {
		block := b[:min(len(b), 64)]
		b = b[len(block):]
		if len(block) == 64 && zero64(block) {
			run += 64
			continue
		}
		h, run = h*fnvPow(run), 0
		for _, c := range block {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	return h * fnvPow(run)
}

// zero64 reports whether the first 64 bytes of b are all zero. The last
// word is read first, so one bounds check covers the other seven.
func zero64(b []byte) bool {
	le := binary.LittleEndian
	return le.Uint64(b[56:])|le.Uint64(b)|le.Uint64(b[8:])|le.Uint64(b[16:])|
		le.Uint64(b[24:])|le.Uint64(b[32:])|le.Uint64(b[40:])|le.Uint64(b[48:]) == 0
}

// fnvPow returns fnvPrime64^n mod 2^64, by squaring.
func fnvPow(n uint64) uint64 {
	r, sq := uint64(1), uint64(fnvPrime64)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r *= sq
		}
		sq *= sq
	}
	return r
}
