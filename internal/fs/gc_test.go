package fs

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// The free-list/Compact property test: a ~2000-step deterministic random
// mix of create/write/append/truncate/unlink/compact against an
// in-memory model, checking after every mutation that
//
//   - no live extent overlaps another live extent, a free-list entry,
//     or the metadata pages;
//   - every file still reads back exactly as the model says;
//
// and at every Compact that the space accounting closes: live canonical
// capacities + free-list bytes + the bump-cursor tail cover the extent
// area exactly — no leaked extent, which is precisely the defect the
// paper's prototype kept.
//
// The whole run is replayed on a second machine and the final images
// must be byte-identical (checksummed), the determinism Compact exists
// to provide.

const gcSteps = 2000

// gcRun executes the scripted operation mix on a fresh machine and
// returns the final image checksum. With check set it verifies the
// invariants as it goes (the replay pass skips them for speed).
func gcRun(t *testing.T, seed int64, check bool) uint64 {
	t.Helper()
	var sum uint64
	m := kernel.New(kernel.Config{})
	res := m.Run(func(env *kernel.Env) {
		// Small initial image with headroom to grow: growth, and
		// extents that cross the old end, are on the tested path.
		f := FormatGrowable(env, testBase, 64<<10, testSize)
		rng := rand.New(rand.NewSource(seed))
		if err := f.Mkdir("d"); err != nil {
			panic(err)
		}
		names := []string{"a", "b", "c", "d/x", "d/y", "d/z"}
		model := map[string][]byte{}

		for step := 0; step < gcSteps; step++ {
			name := names[rng.Intn(len(names))]
			cur, exists := model[name]
			switch rng.Intn(12) {
			case 0, 1: // create
				if exists {
					continue
				}
				if err := f.Create(name); err != nil {
					panic(fmt.Sprintf("step %d create %s: %v", step, name, err))
				}
				model[name] = []byte{}
			case 2, 3, 4: // write at random offset
				if !exists {
					continue
				}
				off := rng.Intn(3 * vm.PageSize)
				data := make([]byte, rng.Intn(2*vm.PageSize)+1)
				rng.Read(data)
				if err := f.WriteAt(name, off, data); err != nil {
					panic(fmt.Sprintf("step %d write %s: %v", step, name, err))
				}
				for len(cur) < off+len(data) {
					cur = append(cur, 0)
				}
				copy(cur[off:], data)
				model[name] = cur
			case 5, 6: // append
				if !exists {
					continue
				}
				data := make([]byte, rng.Intn(vm.PageSize)+1)
				rng.Read(data)
				if err := f.Append(name, data); err != nil {
					panic(fmt.Sprintf("step %d append %s: %v", step, name, err))
				}
				model[name] = append(cur, data...)
			case 7, 8: // truncate (shrink frees extent tails)
				if !exists {
					continue
				}
				n := rng.Intn(2 * vm.PageSize)
				if err := f.Truncate(name, n); err != nil {
					panic(fmt.Sprintf("step %d truncate %s: %v", step, name, err))
				}
				for len(cur) < n {
					cur = append(cur, 0)
				}
				model[name] = cur[:n]
			case 9, 10: // unlink (frees the whole extent)
				if !exists {
					continue
				}
				if err := f.Unlink(name); err != nil {
					panic(fmt.Sprintf("step %d unlink %s: %v", step, name, err))
				}
				delete(model, name)
			case 11: // compact, reclaiming tombstones
				st, err := f.Compact()
				if err != nil {
					panic(fmt.Sprintf("step %d compact: %v", step, err))
				}
				if check {
					gcCheckAccounting(f, st, step)
				}
			}
			if check {
				gcCheckLayout(f, step)
				if step%97 == 0 {
					gcCheckContents(f, model, step)
				}
			}
		}
		if _, err := f.Compact(); err != nil {
			panic(err)
		}
		if check {
			gcCheckContents(f, model, gcSteps)
			gcCheckAccounting(f, CompactStats{}, gcSteps)
		}
		sum = f.Checksum()
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("gc property run stopped: %v %v", res.Status, res.Err)
	}
	return sum
}

// gcCheckLayout asserts that live extents, free-list entries and the
// metadata are pairwise disjoint and inside the image.
func gcCheckLayout(f *FS, step int) {
	type span struct {
		off, end uint32
		what     string
	}
	spans := []span{{0, dataStart, "metadata"}}
	for ino := 1; ino < NumInodes; ino++ {
		if f.iGet(ino, iFlags)&flagExists == 0 {
			if f.inUse(ino) && f.iGet(ino, iExtCap) != 0 {
				panic(fmt.Sprintf("step %d: tombstone %d still holds an extent", step, ino))
			}
			continue
		}
		c := f.iGet(ino, iExtCap)
		if c == 0 {
			continue
		}
		off := f.iGet(ino, iExtOff)
		if f.iGet(ino, iSize) > c {
			panic(fmt.Sprintf("step %d: ino %d size exceeds cap", step, ino))
		}
		spans = append(spans, span{off, off + c, fmt.Sprintf("ino %d (%s)", ino, f.pathOf(ino))})
	}
	for _, e := range f.readFreeList() {
		spans = append(spans, span{e.off, e.off + e.length, "free extent"})
	}
	size := uint32(f.size())
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for i, s := range spans {
		if s.end > size || s.end < s.off {
			panic(fmt.Sprintf("step %d: %s [%d,%d) outside image (%d)", step, s.what, s.off, s.end, size))
		}
		if i > 0 && spans[i-1].end > s.off {
			panic(fmt.Sprintf("step %d: %s [%d,%d) overlaps %s [%d,%d)", step,
				s.what, s.off, s.end, spans[i-1].what, spans[i-1].off, spans[i-1].end))
		}
	}
}

// gcCheckAccounting asserts the post-Compact identity: canonical live
// capacities + free bytes + the cursor tail == the whole extent area.
func gcCheckAccounting(f *FS, _ CompactStats, step int) {
	var used, free int64
	for ino := 1; ino < NumInodes; ino++ {
		if f.iGet(ino, iFlags)&flagExists != 0 {
			c := f.iGet(ino, iExtCap)
			if want := f.canonicalCap(f.iGet(ino, iSize)); c != want {
				panic(fmt.Sprintf("step %d: ino %d cap %d not canonical (%d) after compact", step, ino, c, want))
			}
			used += int64(c)
		}
	}
	for _, e := range f.readFreeList() {
		free += int64(e.length)
	}
	size := int64(f.size())
	total, tail := size-dataStart, size-int64(f.gu32(sbCursor))
	if used+free+tail != total {
		panic(fmt.Sprintf("step %d: leak after compact: used %d + free %d + tail %d != extent area %d",
			step, used, free, tail, total))
	}
}

func gcCheckContents(f *FS, model map[string][]byte, step int) {
	for name, want := range model {
		got, err := f.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			panic(fmt.Sprintf("step %d: %s diverged from model (%d vs %d bytes, err %v)",
				step, name, len(got), len(want), err))
		}
	}
	var live int
	for _, info := range f.List() {
		if !info.Dir {
			live++
		}
	}
	if live != len(model) {
		panic(fmt.Sprintf("step %d: List shows %d files, model has %d", step, live, len(model)))
	}
}

func TestFreeListPropertyAndReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 0x6F5, 0xDECAF} {
		sum := gcRun(t, seed, true)
		if replay := gcRun(t, seed, false); replay != sum {
			t.Fatalf("seed %d: replayed image checksum %#x != original %#x", seed, replay, sum)
		}
	}
}

// TestCompactReclaimsSpace pins the headline behaviour: space freed by
// unlink is actually reusable, where the paper's prototype leaked it.
// Writing and deleting a large file repeatedly must not exhaust the
// image (pre-GC it ran out after a handful of iterations).
func TestCompactReclaimsSpace(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		big := bytes.Repeat([]byte{0xCC}, int(testSize)/8)
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("blob%d", i%2)
			if err := f.WriteFile(name, big); err != nil {
				t.Fatalf("iteration %d: %v (space leaked?)", i, err)
			}
			if err := f.Unlink(name); err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				if _, err := f.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		gc := f.GC()
		if gc.Reused == 0 {
			t.Error("no allocation was ever served from the free list")
		}
		if gc.Compactions != 4 {
			t.Errorf("compactions = %d, want 4", gc.Compactions)
		}
	})
}

// TestGrowthChainsRegions exercises the soft ErrNoSpace limit: an image
// formatted small but growable grows in place on demand, and the hard
// ceiling still refuses.
func TestGrowthChainsRegions(t *testing.T) {
	m := kernel.New(kernel.Config{})
	res := m.Run(func(env *kernel.Env) {
		f := FormatGrowable(env, testBase, 64<<10, 4<<20)
		payload := bytes.Repeat([]byte{7}, 200<<10) // far beyond the initial 64K
		if err := f.WriteFile("big", payload); err != nil {
			panic(fmt.Sprintf("growable write: %v", err))
		}
		got, err := f.ReadFile("big")
		if err != nil || !bytes.Equal(got, payload) {
			panic("content lost across growth")
		}
		if f.GC().Grows == 0 {
			panic("image never grew")
		}
		// Attach still validates the grown image.
		if _, err := Attach(env, testBase, 4<<20); err != nil {
			panic(fmt.Sprintf("attach grown image: %v", err))
		}
		// The ceiling is a hard stop.
		if err := f.Truncate("big", 4<<20-vm.PageSize); !errors.Is(err, ErrNoSpace) {
			panic(fmt.Sprintf("past-ceiling truncate: %v", err))
		}
		// And the image remains usable after the refusal.
		if err := f.Append("big", []byte("tail")); err != nil {
			panic(fmt.Sprintf("append after refusal: %v", err))
		}
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
}

// chained_v2.img.gz is an image grown under the chained-region format
// (89972c6), when every growth mapped a header page and a region-table
// entry. It was written there by
//
//	f := FormatGrowable(env, testBase, 64<<10, 4<<20)
//	f.Mkdir("d")
//	for _, name := range []string{"a", "d/b", "big", "c"} { f.WriteFile(name, chainedFill(name)) }
//	f.Unlink("a")
//	for _, name := range []string{"huge", "d/e"} { f.WriteFile(name, chainedFill(name)) }
//
// then read out whole (f.ImageSize() bytes) and gzipped. "big" grew it
// once and "huge" again: it holds three regions, the second's tail on the
// free list, and "d/e" reusing a's extent.
var chainedSizes = map[string]int{"d/b": 20000, "big": 40000, "c": 5000, "huge": 1000000, "d/e": 100}

// chainedFill is the content the fixture's file name was written with.
func chainedFill(name string) []byte {
	n := chainedSizes[name]
	return bytes.Repeat([]byte(name+";"), n/(len(name)+1)+1)[:n]
}

// chainedImage is the fixture's bytes.
func chainedImage(t testing.TB) []byte {
	z, err := os.Open(filepath.Join("testdata", "chained_v2.img.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()
	r, err := gzip.NewReader(z)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestChainedImageAttachesAndGrowsInPlace: an image grown in chained
// regions is one extent area. It attaches as it is, every file reads
// back, a write past its end grows it in place, and Compact lays it out
// canonically.
func TestChainedImageAttachesAndGrowsInPlace(t *testing.T) {
	img := chainedImage(t)
	indexEnv(t, func(env *kernel.Env) {
		env.Zero(testBase, uint64(len(img)), vm.PermRW)
		env.Write(testBase, img)
		f, err := Attach(env, testBase, uint64(len(img)))
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		more := bytes.Repeat([]byte{0x5A}, 600<<10)
		check := func(when string, grown bool) {
			for name := range chainedSizes {
				if got, err := f.ReadFile(name); err != nil || !bytes.Equal(got, chainedFill(name)) {
					t.Fatalf("%s: %s reads %d bytes, %v", when, name, len(got), err)
				}
			}
			if got, _ := f.ReadFile("more"); grown && !bytes.Equal(got, more) {
				t.Fatalf("%s: the file that grew the image reads %d bytes", when, len(got))
			}
		}
		check("attached", false)
		gcCheckLayout(f, 0)

		// The cursor sits at the end and no free entry holds 1 MiB, so
		// the write bumps from the old end and grows the image there.
		end := f.ImageSize()
		must(f.WriteFile("more", more))
		if off := f.iGet(f.lookup("more"), iExtOff); uint64(off) != end {
			t.Errorf("the write landed at %d, want the old end %d", off, end)
		}
		if got, want := f.ImageSize(), end+1<<20; got != want {
			t.Errorf("image grew to %d, want %d", got, want)
		}
		if g := f.GC().Grows; g != 3 {
			t.Errorf("Grows = %d, want 3", g)
		}
		check("grown", true)
		gcCheckLayout(f, 1)

		st, err := f.Compact()
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}
		gcCheckLayout(f, 2)
		gcCheckAccounting(f, st, 2)
		if n := len(f.readFreeList()); n != 0 {
			t.Errorf("%d free entries after Compact, want none", n)
		}
		check("compacted", true)
		if _, err := Attach(env, testBase, f.ImageSize()); err != nil {
			t.Errorf("Attach after Compact: %v", err)
		}
	})
}

// TestAllocationCrossesTheEnd: an extent the cursor cannot fit before the
// end is placed at the cursor and the image grows under it, once; the
// bytes before the old end go to the extent, not to the free list.
func TestAllocationCrossesTheEnd(t *testing.T) {
	indexEnv(t, func(env *kernel.Env) {
		f := FormatGrowable(env, testBase, 64<<10, testSize)
		must(f.WriteFile("x", make([]byte, 32<<10)))
		must(f.WriteFile("y", make([]byte, 4<<10)))
		cur := f.gu32(sbCursor)
		if want := uint32(64<<10 - 8<<10); cur != want {
			t.Fatalf("cursor %d, want %d", cur, want)
		}
		z := bytes.Repeat([]byte{9}, 16<<10)
		must(f.WriteFile("z", z))
		if off := f.iGet(f.lookup("z"), iExtOff); off != cur {
			t.Errorf("z landed at %d, want the cursor %d", off, cur)
		}
		if gc := f.GC(); gc.FreeExtents != 0 || gc.Grows != 1 {
			t.Errorf("free extents %d, grows %d; want 0 and 1", gc.FreeExtents, gc.Grows)
		}
		if got, _ := f.ReadFile("z"); !bytes.Equal(got, z) {
			t.Error("z does not read back")
		}
		gcCheckLayout(f, 0)
	})
}
