package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/imgenc"
)

// cursorsAt is the offset of the three device cursors, the tail of the
// config section that follows the envelope's 5-byte head.
const cursorsAt = 5 + configSectionLen - 3*8

// flagsAt is the offset of the config section's flag byte, after the
// node and CPU counts.
const flagsAt = 5 + 4 + 4

// uncachedImage is img with config flag bit 0 set and re-sealed: the
// mark of a machine in the retired mode without per-node read-only
// caches, which Restore refuses.
func uncachedImage(img []byte) []byte {
	b := append([]byte(nil), img...)
	b[flagsAt] |= 1
	return imgenc.Seal(b[:len(b)-4])
}

// recapture resumes a restored machine with a program that does nothing
// but checkpoint it again.
func recapture(t *testing.T, m *Machine) []byte {
	var img []byte
	var err error
	res := m.Run(func(env *Env) { img, err = env.Checkpoint(CheckpointOpts{}) }, 0)
	if err != nil || res.Err != nil {
		t.Fatalf("checkpoint of a restored machine: %v, run: %v", err, res.Err)
	}
	return img
}

// FuzzRestore mutates machine images against the contract Restore and
// SplitImage share. Every input is tried as given (almost always a CRC
// failure) and with its trailer recomputed, so the mutation itself
// reaches the decoders. SplitImage either fails typed or splits into
// halves JoinImage reassembles byte for byte. Restore either fails with
// one of the layer's typed errors, leaving the machine pristine, or
// yields a machine whose re-captured image is a fixed point: the first
// re-capture may normalize (a resumed root's segment starts at its
// restored virtual time, a mutant's unreferenced page is dropped) and
// must then round-trip exactly. Neither may panic, and what they
// allocate must follow from the bytes consumed, never from a count
// field (the bound is vm's sparse-to-dense ratio: a 16 KiB table or
// space per two bytes of forest, see FuzzDecodeForest).
func FuzzRestore(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "ckpt_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	dirty, err := os.ReadFile(filepath.Join("testdata", "ckpt_v1_dirty.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dirty)
	for _, cut := range []int{0, 4, 5, 5 + configSectionLen, len(golden) / 3, len(golden) - 5, len(golden) - 1} {
		f.Add(golden[:cut])
	}
	negCursor := append([]byte(nil), golden...)
	binary.LittleEndian.PutUint64(negCursor[cursorsAt+8:], ^uint64(0))
	f.Add(imgenc.Seal(negCursor[:len(negCursor)-4]))
	f.Add(uncachedImage(golden))
	mn, rec := mnImage(f, 2)
	f.Add(mn)
	otherNode, noFetched, noCaches := residencyVariants(rec)
	for _, r := range [][]byte{otherNode, noFetched, noCaches} {
		f.Add(spliceRootResidency(f, mn, rec, r))
	}

	// Restore replays device reads up to the image's three cursors, so
	// its running time is proportional to them by design; past this many
	// the harness does not call it. A negative cursor is not slow: it is
	// rejected before anything is replayed.
	const maxCursor = 1 << 12
	const maxObject = 17 << 10

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*len(golden) {
			t.Skip("longer than any image the seeds can grow into")
		}
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, imgenc.Seal(append([]byte(nil), data[:len(data)-4]...)))
		}
		for _, in := range inputs {
			var bad *BadImageError
			var ver *ImageVersionError
			var mis *ImageMismatchError
			var kern *KernelError

			meta, forest, err := SplitImage(in)
			if err != nil {
				if !errors.As(err, &bad) && !errors.As(err, &ver) {
					t.Fatalf("SplitImage: %v (%T), want *BadImageError or *ImageVersionError", err, err)
				}
			} else if joined, err := JoinImage(meta, forest); err != nil || !bytes.Equal(joined, in) {
				t.Fatalf("JoinImage(SplitImage(x)) != x (err %v)", err)
			}

			if len(in) >= cursorsAt+3*8 {
				slow := false
				for i := 0; i < 3; i++ {
					if c := int64(binary.LittleEndian.Uint64(in[cursorsAt+8*i:])); c > maxCursor {
						slow = true
					}
				}
				if slow {
					continue
				}
			}

			cfg := ckConfig()
			if len(in) >= 9 && binary.LittleEndian.Uint32(in[5:]) == uint32(mnConfig.Nodes) {
				cfg = mnConfig // the multi-node seeds' machine
			}
			m := New(cfg)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = m.Restore(in)
			runtime.ReadMemStats(&after)
			if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(in)/2+8)*maxObject; grew > bound {
				t.Fatalf("restoring %d bytes allocated %d (bound %d)", len(in), grew, bound)
			}
			if err != nil {
				if !errors.As(err, &bad) && !errors.As(err, &ver) && !errors.As(err, &mis) && !errors.As(err, &kern) {
					t.Fatalf("Restore: %v (%T), want one of the layer's typed errors", err, err)
				}
				// A machine that rejected an image may still run, and
				// its footprint is its pool's live count.
				if n := m.frames.Live(); n != 0 && m.broken == nil {
					t.Fatalf("a rejected image left %d frames out of the machine's pool", n)
				}
				continue
			}
			first := recapture(t, m)
			m = New(cfg)
			if err := m.Restore(first); err != nil {
				t.Fatalf("re-captured image does not restore: %v", err)
			}
			if second := recapture(t, m); !bytes.Equal(first, second) {
				t.Fatalf("re-capture is not a fixed point (%d then %d bytes)", len(first), len(second))
			}
		}
	})
}
