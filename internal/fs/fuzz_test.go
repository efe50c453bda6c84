package fs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// An image is bytes in a space's memory, and a collector attaches to
// images other spaces wrote (detmake's collect, uproc's wait): whatever
// the bytes are, the attaching space must come out with an error or a
// handle that works — never a fault, which would take the collector down
// with the task that scribbled.

// fuzzMapped is the span the harness maps for an image; inputs are the
// image's leading bytes and the rest reads as zeros. It holds the grown
// fixture (chained_v2.img.gz).
const fuzzMapped = 4 << 20

// fuzzSeedImage is the metadata (superblock and the inode table's used
// slots) of an image holding a directory and three files.
func fuzzSeedImage(t testing.TB) []byte {
	var img []byte
	indexEnv(t, func(env *kernel.Env) {
		f := Format(env, testBase, fuzzMapped)
		must(f.Mkdir("d"))
		must(f.WriteFile("a", []byte("alpha")))
		must(f.WriteFile("d/b", bytes.Repeat([]byte{'b'}, 5000)))
		must(f.WriteFile("d/c", nil))
		img = make([]byte, dataStart)
		env.Read(testBase, img)
	})
	return bytes.TrimRight(img, "\x00")
}

// wildRegionTable is the 77-byte image FuzzAttach found first (with size
// 72448), when the superblock held a table of chained regions: region 0
// claimed 0xd7d7d7d7 bytes and region 1 chained on from there, so Attach
// went to read region 1's header 3.6 GB past the image. The table's words
// (the count at 40, {start, size} pairs from 64) are no longer read.
func wildRegionTable(size uint32) []byte {
	img := make([]byte, 77)
	binary.LittleEndian.PutUint32(img[sbMagic:], Magic)
	binary.LittleEndian.PutUint32(img[sbSize:], size)
	binary.LittleEndian.PutUint32(img[40:], 15)
	binary.LittleEndian.PutUint32(img[68:], 0xd7d7d7d7)
	binary.LittleEndian.PutUint32(img[72:], 0xd7d7d7d7)
	img[76] = 0xd7
	return img
}

// wildParentLink is the second: a valid image but for one live entry's
// parent link, which names no slot. Attach accepts it (the link is not
// among the fields it reads); resolving the entry's path then loaded a
// name from base + 4096 + 128*0x00F00000.
func wildParentLink(t testing.TB) []byte {
	img := fuzzSeedImage(t)
	binary.LittleEndian.PutUint32(img[inodeOff(2)+iParent:], 0x00F0_0000)
	return img
}

// attachBytes maps a zeroed span at testBase, lays img over its start and
// runs fn on the attach's outcome, failing the test unless the space
// halts.
func attachBytes(t *testing.T, img []byte, fn func(env *kernel.Env, f *FS, err error)) {
	t.Helper()
	res := kernel.New(kernel.Config{}).Run(func(env *kernel.Env) {
		env.Zero(testBase, fuzzMapped, vm.PermRW)
		env.Write(testBase, img)
		f, err := Attach(env, testBase, fuzzMapped)
		fn(env, f, err)
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("attaching space stopped %v: %v", res.Status, res.Err)
	}
}

// duplicatedName is the seed image with file a's record copied into a
// free slot: two in-use entries under one (dir, name), which no sequence
// of fs operations produces but Attach does not refuse.
func duplicatedName(t testing.TB) []byte {
	img := fuzzSeedImage(t)
	img = append(img, make([]byte, dataStart-len(img))...)
	copy(img[inodeOff(NumInodes-1):], img[inodeOff(2):inodeOff(3)])
	return bytes.TrimRight(img, "\x00")
}

func FuzzAttach(f *testing.F) {
	// The inputs it has found so far are in testdata/fuzz/FuzzAttach.
	f.Add(fuzzSeedImage(f))
	f.Add(duplicatedName(f))
	f.Add(chainedImage(f))
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > fuzzMapped {
			t.Skip("longer than the span the harness maps")
		}
		attachBytes(t, img, func(env *kernel.Env, f *FS, err error) {
			if err != nil {
				return
			}
			// An accepted image is used the way a collector uses one.
			// Errors are fine; what must not happen is a fault. Every
			// Stat and ReadFile answers, and costs, on the attached
			// handle what it does on a fresh one over the same bytes.
			for _, info := range f.List() {
				if info.Dir {
					f.ReadDir(info.Name)
				}
				for _, op := range []func(f *FS) string{
					func(f *FS) string { return fmt.Sprint(f.Stat(info.Name)) },
					func(f *FS) string { return fmt.Sprint(f.ReadFile(info.Name)) },
				} {
					var got, want string
					gotCost := charged(env, func() { got = op(f) })
					wantCost := charged(env, func() { want = op(AttachRestored(env, testBase)) })
					if got != want || gotCost != wantCost {
						t.Errorf("%q: attached handle %s charged %v, fresh handle %s charged %v",
							info.Name, got, gotCost, want, wantCost)
					}
				}
			}
			f.WriteFile("fuzz", []byte("written after attach"))
			f.Checksum()
		})
	})
}

// TestAttachRefusesWildImageReadingNothingPastIt: the wild-region-table
// image is refused with an error, and the attach reads nothing past the
// image's own bytes — only they are mapped, so a read beyond them faults
// the space.
func TestAttachRefusesWildImageReadingNothingPastIt(t *testing.T) {
	// Whole pages, so the size itself passes and the allocation state is
	// reached.
	size := uint32(72448 &^ (vm.PageSize - 1))
	res := kernel.New(kernel.Config{}).Run(func(env *kernel.Env) {
		env.Zero(testBase, uint64(size), vm.PermRW)
		env.Write(testBase, wildRegionTable(size))
		if _, err := Attach(env, testBase, uint64(size)); err == nil {
			t.Error("Attach accepted the wild image")
		}
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("attaching space stopped %v: %v", res.Status, res.Err)
	}
}

// TestWildParentLinkDoesNotFault: the paths that turn a parent link into
// an address — List and Stat through pathOf, ReconcileFrom through the
// replica's pathOf — survive a link that names no slot.
func TestWildParentLinkDoesNotFault(t *testing.T) {
	attachBytes(t, wildParentLink(t), func(env *kernel.Env, f *FS, err error) {
		if err != nil {
			t.Errorf("Attach: %v (the link is not a field it validates)", err)
			return
		}
		if n := len(f.List()); n != 4 {
			t.Errorf("List returned %d entries, want 4", n)
		}
		if _, err := f.Stat("d/b"); err != nil {
			t.Errorf("Stat of an intact entry: %v", err)
		}
		// The damaged image as the replica a parent reconciles from.
		f.iPut(2, iVersion, f.iGet(2, iForkVersion)+1) // the entry counts as changed
		parent := Format(env, scratch, fuzzMapped)
		if _, err := parent.ReconcileFrom(f); err != nil {
			t.Errorf("ReconcileFrom: %v", err)
		}
	})
}
