package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// The per-directory entry index: lookups must agree with the full-table
// scan after any operation mix, across handles, and the namespace
// generation must keep a second handle's cache coherent.

func indexEnv(t testing.TB, fn func(env *kernel.Env)) {
	res := kernel.New(kernel.Config{}).Run(func(env *kernel.Env) { fn(env) }, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

// childInScan is the full-table lookup the index replaced, kept as its
// ground truth: the first in-use slot named name under dir whose flags
// meet want.
func (f *FS) childInScan(dir int, name string, want uint32) int {
	for i := 1; i < NumInodes; i++ {
		if !f.inUse(i) || f.iGet(i, iFlags)&want == 0 {
			continue
		}
		if int(f.iGet(i, iParent)) == dir && f.name(i) == name {
			return i
		}
	}
	return -1
}

// lookupScan is lookup resolved by childInScan alone.
func (f *FS) lookupScan(path string) int {
	parts, err := splitPath(path)
	if err != nil || len(parts) == 0 {
		return -1
	}
	dir := 0
	for _, c := range parts[:len(parts)-1] {
		ino := f.childInScan(dir, c, flagExists)
		if ino < 0 || f.iGet(ino, iFlags)&flagDir == 0 {
			return -1
		}
		dir = ino
	}
	return f.childInScan(dir, parts[len(parts)-1], flagExists)
}

func TestIndexMatchesScanUnderRandomOps(t *testing.T) {
	indexEnv(t, func(env *kernel.Env) {
		f := Format(env, DefaultBase, 1<<20)
		scan := Attach2(env, DefaultBase, 1<<20)
		rng := rand.New(rand.NewSource(99))
		var live []string
		paths := func() []string {
			out := []string{"a", "b", "dir/x", "dir/y", "dir/sub/z", "w"}
			return out
		}()
		if err := f.Mkdir("dir"); err != nil {
			panic(err)
		}
		if err := f.Mkdir("dir/sub"); err != nil {
			panic(err)
		}
		for step := 0; step < 600; step++ {
			p := paths[rng.Intn(len(paths))]
			switch rng.Intn(3) {
			case 0:
				if f.Create(p) == nil {
					live = append(live, p)
				}
			case 1:
				f.Unlink(p)
			case 2:
				f.WriteAt(p, rng.Intn(64), []byte("data"))
			}
			// The mutating handle's index, a second handle's and the
			// scan must agree on every candidate path after every step.
			for _, q := range paths {
				a, b, c := f.lookup(q), scan.lookup(q), f.lookupScan(q)
				if a != c || b != c {
					panic(fmt.Sprintf("step %d: lookup(%q)=%d, second handle %d, scan %d", step, q, a, b, c))
				}
			}
		}
		_ = live
	})
}

func TestIndexCoherentAcrossHandles(t *testing.T) {
	indexEnv(t, func(env *kernel.Env) {
		a := Format(env, DefaultBase, 1<<20)
		b := Attach2(env, DefaultBase, 1<<20)
		if err := a.Create("one"); err != nil {
			panic(err)
		}
		if b.lookup("one") < 0 {
			panic("handle b does not see handle a's create")
		}
		// b's cache is now warm; a mutation through a must invalidate it.
		if err := a.Unlink("one"); err != nil {
			panic(err)
		}
		if err := a.Create("two"); err != nil {
			panic(err)
		}
		if b.lookup("one") >= 0 {
			panic("handle b still sees the name a unlinked")
		}
		if b.lookup("two") < 0 {
			panic("handle b does not see the name a created")
		}
		// And the other direction: mutate through b, read through a.
		if err := b.Unlink("two"); err != nil {
			panic(err)
		}
		if a.lookup("two") >= 0 {
			panic("handle a still sees an entry b unlinked")
		}
	})
}

// handleKinds are the four ways an operation can find its handle's index:
// built and maintained by this handle all along, absent on a handle
// Attach or AttachRestored made just now, or out of date because another
// handle mutated the image since. handleKinds[k] returns the handle for
// step on the image at base; stale ones take turns, so each finds what
// the other did.
var handleKinds = []struct {
	name   string
	handle func(env *kernel.Env, base vm.Addr, warm [2]*FS, step int) *FS
}{
	{"warm", func(_ *kernel.Env, _ vm.Addr, warm [2]*FS, _ int) *FS { return warm[0] }},
	{"attached", func(env *kernel.Env, base vm.Addr, _ [2]*FS, _ int) *FS {
		return Attach2(env, base, walkImageSize)
	}},
	{"restored", func(env *kernel.Env, base vm.Addr, _ [2]*FS, _ int) *FS { return AttachRestored(env, base) }},
	{"stale", func(_ *kernel.Env, _ vm.Addr, warm [2]*FS, step int) *FS { return warm[step%2] }},
}

// handleOps are the operations the handle-kind scripts draw from; each
// describes what it returned.
var handleOps = []func(f *FS, path string, p []byte) string{
	func(f *FS, path string, p []byte) string { return fmt.Sprint(f.WriteFile(path, p)) },
	func(f *FS, path string, p []byte) string { return fmt.Sprint(f.WriteFileAll(path, p)) },
	func(f *FS, path string, _ []byte) string { return fmt.Sprint(f.Create(path)) },
	func(f *FS, path string, _ []byte) string { return fmt.Sprint(f.Mkdir(path)) },
	func(f *FS, path string, _ []byte) string { return fmt.Sprint(f.Unlink(path)) },
	func(f *FS, path string, p []byte) string { return fmt.Sprint(f.Append(path, p)) },
	func(f *FS, path string, p []byte) string { return fmt.Sprint(f.Truncate(path, len(p))) },
	func(f *FS, path string, _ []byte) string {
		b, err := f.ReadFile(path)
		return fmt.Sprint(len(b), fnvFold(fnvOffset64, b), err)
	},
	func(f *FS, path string, p []byte) string {
		n, err := f.ReadAt(path, len(p)%512, p)
		return fmt.Sprint(n, fnvFold(fnvOffset64, p[:n]), err)
	},
	func(f *FS, path string, _ []byte) string { return fmt.Sprint(f.Stat(path)) },
	func(f *FS, path string, _ []byte) string { return fmt.Sprint(f.ReadDir(path)) },
}

// TestLookupChargeIsImageState: the entry index is a host cache, so an
// operation returns and costs the same through every kind of handle.
// Four images take the same random script, each through its own
// handleKinds entry, and every operation's result, instructions and
// virtual time must agree with the warm handle's. Mutation-checked: a
// rebuildIndex that charges its reads fails here.
func TestLookupChargeIsImageState(t *testing.T) {
	stale := 0
	for seed := int64(1); seed <= 40; seed++ {
		indexEnv(t, func(env *kernel.Env) {
			rng := rand.New(rand.NewSource(seed))
			protect := seed%3 == 0
			var bases [4]vm.Addr
			var warm [4][2]*FS
			for k := range bases {
				bases[k] = testBase + vm.Addr(k)*0x0100_0000
				f := Format(env, bases[k], walkImageSize)
				f.SetProtect(protect)
				warm[k] = [2]*FS{f, Attach2(env, bases[k], walkImageSize)}
			}
			for step := 0; step < 200; step++ {
				path, p := walkPath(rng), walkData(rng)
				op := handleOps[rng.Intn(len(handleOps))]
				var want string
				var wantCost [2]int64
				for k, kind := range handleKinds {
					f := kind.handle(env, bases[k], warm[k], step)
					f.protect = protect
					if f.idx != nil && f.idxGen != f.gu32(sbGen) {
						stale++
					}
					var got string
					cost := charged(env, func() { got = op(f, path, bytes.Clone(p)) })
					if k == 0 {
						want, wantCost = got, cost
						continue
					}
					if got != want || cost != wantCost {
						panic(fmt.Sprintf("seed %d step %d, %q through a %s handle: %s charged (insns, vt) %v; warm: %s charged %v",
							seed, step, path, kind.name, got, cost, want, wantCost))
					}
				}
			}
			img := make([]byte, walkImageSize)
			env.Read(bases[0], img)
			for k := 1; k < len(bases); k++ {
				other := make([]byte, walkImageSize)
				env.Read(bases[k], other)
				if !bytes.Equal(img, other) {
					panic(fmt.Sprintf("seed %d: the %s handle's image differs from the warm one's", seed, handleKinds[k].name))
				}
			}
		})
	}
	if stale == 0 {
		t.Errorf("no operation found its handle's index stale")
	}
}

// Attach2 attaches a second handle, failing the test on error.
func Attach2(env *kernel.Env, base uint32, size uint64) *FS {
	f, err := Attach(env, base, size)
	if err != nil {
		panic(err)
	}
	return f
}

// referenceAttach and referenceIndex are Attach and rebuildIndex as they
// stood before their scans took columns — one checked load per field, in
// slot order — kept as the oracle for what Attach returns and charges and
// what rebuildIndex builds. Every bound is the one-area rule: the cursor,
// each extent and each free entry lie in [dataStart, size).
func referenceAttach(env *kernel.Env, base vm.Addr, mapped uint64) (*FS, error) {
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
	if cur := f.gu32(sbCursor); !inside(size, cur, 0) {
		return nil, fmt.Errorf("fs: bump cursor %d outside the extent area", cur)
	}
	if int(f.gu32(sbFreeCount)) > maxFree {
		return nil, fmt.Errorf("fs: free table claims %d entries (max %d)", f.gu32(sbFreeCount), maxFree)
	}
	for ino := 1; ino < NumInodes; ino++ {
		fl := f.iGet(ino, iFlags)
		c := f.iGet(ino, iExtCap)
		isFile := fl&flagExists != 0 && fl&flagDir == 0
		if !isFile && c != 0 {
			return nil, fmt.Errorf("fs: inode %d holds an extent it cannot own", ino)
		}
		if isFile {
			if f.iGet(ino, iSize) > c {
				return nil, fmt.Errorf("fs: inode %d size exceeds extent capacity", ino)
			}
			if c != 0 && !inside(size, f.iGet(ino, iExtOff), c) {
				return nil, fmt.Errorf("fs: inode %d extent [%d,+%d) outside the extent area",
					ino, f.iGet(ino, iExtOff), c)
			}
		}
	}
	prevEnd := uint32(0)
	for _, e := range f.readFreeList() {
		if e.length == 0 || !inside(size, e.off, e.length) {
			return nil, fmt.Errorf("fs: free extent [%d,+%d) outside the extent area", e.off, e.length)
		}
		if e.off < prevEnd {
			return nil, fmt.Errorf("fs: free extent [%d,+%d) overlaps or disorders the free list", e.off, e.length)
		}
		prevEnd = e.off + e.length
	}
	return f, nil
}

func referenceIndex(f *FS, gen uint32) {
	f.idx = make(map[dirent]int)
	for i := 1; i < NumInodes; i++ {
		if f.inUse(i) {
			f.idx[dirent{dir: int(f.iGet(i, iParent)), name: f.name(i)}] = i
		}
	}
	f.idxGen = gen
}

// scanImages builds the images the scan oracles run over, each at
// testBase with at most testSize mapped, and hands back a live handle.
var scanImages = []struct {
	name  string
	build func(env *kernel.Env) *FS
}{
	{"fresh", func(env *kernel.Env) *FS { return Format(env, testBase, testSize) }},
	{"three-files", func(env *kernel.Env) *FS {
		f := Format(env, testBase, testSize)
		scanFill(f, 3)
		return f
	}},
	{"full", func(env *kernel.Env) *FS {
		f := Format(env, testBase, testSize)
		scanFill(f, NumInodes-1)
		return f
	}},
	{"tombstones", scanTombstones},
	{"grown", func(env *kernel.Env) *FS {
		f := FormatGrowable(env, testBase, 64<<10, testSize)
		must(f.WriteFile("a", bytes.Repeat([]byte{1}, 200<<10)))
		must(f.WriteFile("b", bytes.Repeat([]byte{2}, 1200<<10)))
		if n := f.GC().Grows; n != 2 {
			panic(fmt.Sprintf("image grew %d times, want 2", n))
		}
		return f
	}},
	{"protected", func(env *kernel.Env) *FS {
		f := Format(env, testBase, testSize)
		scanFill(f, 3)
		f.SetProtect(true)
		return f
	}},
}

// scanTombstones is a directory, forty files with every third unlinked,
// and a file in the directory.
func scanTombstones(env *kernel.Env) *FS {
	f := Format(env, testBase, testSize)
	must(f.Mkdir("d"))
	scanFill(f, 40)
	for i := 0; i < 40; i += 3 {
		must(f.Unlink(fmt.Sprintf("f%03d", i)))
	}
	must(f.WriteFile("d/kept", []byte("kept")))
	return f
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// scanFill creates n files f000… of a few differing sizes.
func scanFill(f *FS, n int) {
	for i := 0; i < n; i++ {
		must(f.WriteFile(fmt.Sprintf("f%03d", i), bytes.Repeat([]byte{byte(i)}, 1+i%5*700)))
	}
}

// charged runs fn and reports the instructions and virtual time it cost.
func charged(env *kernel.Env, fn func()) [2]int64 {
	i0, v0 := env.Insns(), env.VT()
	fn()
	return [2]int64{env.Insns() - i0, env.VT() - v0}
}

// TestScansMatchScalarReference: over every image shape, the column form
// of Attach returns what the field-by-field body returns and costs
// exactly what it costs; rebuildIndex builds the reference's index and
// costs nothing.
func TestScansMatchScalarReference(t *testing.T) {
	for _, img := range scanImages {
		t.Run(img.name, func(t *testing.T) {
			indexEnv(t, func(env *kernel.Env) {
				img.build(env)
				var got, want *FS
				var gotErr, wantErr error
				gotCost := charged(env, func() { got, gotErr = Attach(env, testBase, testSize) })
				wantCost := charged(env, func() { want, wantErr = referenceAttach(env, testBase, testSize) })
				if gotErr != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("Attach = %+v, %v; reference %+v, %v", got, gotErr, want, wantErr)
				}
				if gotCost != wantCost {
					t.Errorf("Attach charged (insns, vt) %v, reference %v", gotCost, wantCost)
				}
				gen := got.gu32(sbGen)
				gotCost = charged(env, func() { got.rebuildIndex(gen) })
				referenceIndex(want, gen)
				if !reflect.DeepEqual(got.idx, want.idx) || got.idxGen != want.idxGen {
					t.Errorf("index %v, reference %v", got.idx, want.idx)
				}
				if gotCost != [2]int64{} {
					t.Errorf("rebuildIndex charged (insns, vt) %v, want nothing", gotCost)
				}
			})
		})
	}
}

// TestAttachRejectsWhatItRejected: each corruption the suite's Attach
// tests plant (fs_test.go, stale_test.go) — and the other checks of the
// same ladder — fails with the reference's message.
func TestAttachRejectsWhatItRejected(t *testing.T) {
	corruptions := []struct {
		name  string
		plant func(f *FS, ino int)
	}{
		{"unformatted", func(f *FS, _ int) { f.pu32(sbMagic, 0) }},
		{"overclaimed size", func(f *FS, _ int) { f.pu32(sbSize, uint32(testSize)+vm.PageSize) }},
		{"ragged size", func(f *FS, _ int) { f.pu32(sbSize, uint32(testSize)-1) }},
		{"cursor in superblock", func(f *FS, _ int) { f.pu32(sbCursor, 17) }},
		{"free count", func(f *FS, _ int) { f.pu32(sbFreeCount, uint32(maxFree)+1) }},
		{"free extent over metadata", func(f *FS, _ int) {
			f.pu32(sbFreeCount, 1)
			f.pu32(freeTable, 0)
			f.pu32(freeTable+4, vm.PageSize)
		}},
		{"extent far outside", func(f *FS, ino int) { f.iPut(ino, iExtOff, 0xFFFF_0000) }},
		{"size over capacity", func(f *FS, ino int) { f.iPut(ino, iSize, f.iGet(ino, iExtCap)+1) }},
		{"extent on a free slot", func(f *FS, _ int) { f.iPut(NumInodes-1, iExtCap, vm.PageSize) }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			withFS(t, func(env *kernel.Env, f *FS) {
				scanFill(f, 3)
				c.plant(f, f.lookup("f001"))
				_, got := Attach(env, testBase, testSize)
				_, want := referenceAttach(env, testBase, testSize)
				if got == nil || want == nil || got.Error() != want.Error() {
					t.Fatalf("Attach: %v\nreference: %v", got, want)
				}
			})
		})
	}
}

// TestAttachRejectChargesWholeColumns pins the one place the column form
// is charged differently: an image rejected at slot k has had both
// columns read in full, where the field-by-field scan stopped after slot
// k's two fields.
func TestAttachRejectChargesWholeColumns(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		const k = 5
		f.iPut(k, iExtCap, vm.PageSize) // a free slot holding an extent
		var gotErr, wantErr error
		got := charged(env, func() { _, gotErr = Attach(env, testBase, testSize) })
		want := charged(env, func() { _, wantErr = referenceAttach(env, testBase, testSize) })
		if gotErr == nil || wantErr == nil {
			t.Fatalf("corrupt image accepted: %v, %v", gotErr, wantErr)
		}
		extra := int64(2 * (NumInodes - 1 - k))
		if got[0]-want[0] != extra || got[1]-want[1] != extra {
			t.Fatalf("reject charged %v, reference %v; want exactly %d more", got, want, extra)
		}
	})
}

// TestScanChargesPinned: the scans with no scalar body left to compare
// against — List, ReadDir, StampFork, ReconcileFrom's pass over the child,
// Compact's two — cost on the tombstones image exactly the instructions
// they cost at b99e401, when each read its flags one slot at a time.
// Compact's pin is its one pass, tombstones reclaimed, straight after
// ReconcileFrom: what Compact with ReclaimTombstones cost there at
// 258997a, the last commit where Compact could also leave tombstones,
// less one tick since the image is one extent area: Compact reads its
// size (one word) where it read the region count and table (two).
func TestScanChargesPinned(t *testing.T) {
	indexEnv(t, func(env *kernel.Env) {
		f := scanTombstones(env)
		pin := func(name string, want int64, fn func()) {
			if got := charged(env, fn); got != [2]int64{want, want} {
				t.Errorf("%s charged (insns, vt) %v, want %d", name, got, want)
			}
		}
		pin("List", 588, func() { f.List() })
		pin("ReadDir root", 587, func() { f.ReadDir("") })
		pin("ReadDir d", 187, func() { f.ReadDir("d") })
		pin("StampFork", 295, func() { f.StampFork() })
		child := forkImage(t, env, f)
		must(child.WriteFile("f001", []byte("child")))
		must(child.Unlink("f002"))
		must(child.WriteFile("new", []byte("n")))
		pin("ReconcileFrom", 430, func() { f.ReconcileFrom(child) })
		pin("Compact", 531220, func() { f.Compact() })
	})
}

// BenchmarkScan times the whole-table scans a detmake task pays for —
// two validating attaches, three index rebuilds, a List when it fails —
// over a task image's shape (three files in 4 MiB) and a full table.
func BenchmarkScan(b *testing.B) {
	ops := []struct {
		name string
		run  func(env *kernel.Env, f *FS)
	}{
		{"attach", func(env *kernel.Env, _ *FS) { Attach2(env, testBase, testSize) }},
		{"index", func(_ *kernel.Env, f *FS) { f.rebuildIndex(0) }},
		{"list", func(_ *kernel.Env, f *FS) { f.List() }},
	}
	for _, op := range ops {
		for _, files := range []int{3, NumInodes - 1} {
			b.Run(fmt.Sprintf("%s/files=%d", op.name, files), func(b *testing.B) {
				indexEnv(b, func(env *kernel.Env) {
					f := Format(env, testBase, testSize)
					scanFill(f, files)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op.run(env, f)
					}
				})
			})
		}
	}
}

// BenchmarkLookup measures path resolution at a full 128-slot inode
// table through the per-directory index and through the scan oracle it
// replaced. The tree is three levels deep, so every lookup resolves
// three components; the scan pays O(NumInodes) per component.
func BenchmarkLookup(b *testing.B) {
	for _, indexed := range []bool{true, false} {
		name, lookup := "indexed", (*FS).lookup
		if !indexed {
			name, lookup = "scan", (*FS).lookupScan
		}
		b.Run(name, func(b *testing.B) {
			indexEnv(b, func(env *kernel.Env) {
				f := Format(env, DefaultBase, 1<<20)
				// Fill the table: 2 dirs, 5 subdirs each, leaves under
				// them until the 128 slots run out.
				var leaves []string
				for d := 0; d < 2; d++ {
					dir := fmt.Sprintf("d%d", d)
					if err := f.Mkdir(dir); err != nil {
						panic(err)
					}
					for s := 0; s < 5; s++ {
						sub := fmt.Sprintf("%s/s%d", dir, s)
						if err := f.Mkdir(sub); err != nil {
							panic(err)
						}
					}
				}
				for i := 0; ; i++ {
					leaf := fmt.Sprintf("d%d/s%d/f%03d", i%2, (i/2)%5, i)
					if err := f.Create(leaf); err != nil {
						break // table full
					}
					leaves = append(leaves, leaf)
				}
				if len(leaves) < 100 {
					panic("table not full")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if lookup(f, leaves[i%len(leaves)]) < 0 {
						panic("leaf not found")
					}
				}
			})
		})
	}
}
