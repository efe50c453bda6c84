package vm

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/imgenc"
)

// reencode serializes a decoded forest the way its image listed it:
// spaces in order, and a snapshot link wherever the decoder left a
// matching token pair.
func reencode(spaces []*Space) []byte {
	e := NewForestEncoder()
	for _, s := range spaces {
		e.Add(s)
	}
	bySnapID := make(map[uint64]*Space)
	for _, s := range spaces {
		if s.snapID != 0 {
			bySnapID[s.snapID] = s
		}
	}
	for _, ref := range spaces {
		e.LinkSnapshot(bySnapID[ref.snapOf], ref)
	}
	return e.Encode()
}

// FuzzDecodeForest mutates forest images against DecodeForest's
// contract. Every input is tried twice — as given (almost always a CRC
// failure) and with its trailer recomputed, so the mutation itself
// reaches the decoder — and each must either fail with the layer's
// typed error or decode to a forest that re-encodes to a fixed point:
// the unmutated seeds re-encode to themselves, a mutant that still
// decodes may normalize once (an unreferenced page is dropped, say) and
// must then round-trip exactly. It must not panic, and what it
// allocates must follow from the bytes it consumed, not from a count
// field: every object the decoder builds (page, table, Space, dirty
// bitmap) is declared by at least two input bytes and is no larger than
// a Space, so that sparse-to-dense ratio is the bound.
func FuzzDecodeForest(f *testing.F) {
	cur, snap := buildPair(f)
	seed := encodePair(cur, snap)
	f.Add(seed)
	for _, cut := range []int{0, 3, 5, 9, len(seed) / 2, len(seed) - 5, len(seed) - 1} {
		f.Add(seed[:cut])
	}
	f.Add(NewForestEncoder().Encode())
	one := NewSpace()
	if err := one.SetPerm(0, 2*PageSize, PermRW); err != nil {
		f.Fatal(err)
	}
	if err := one.WriteU64(8, 42); err != nil {
		f.Fatal(err)
	}
	e := NewForestEncoder()
	e.Add(one)
	f.Add(e.Encode())

	const maxObject = uint64(unsafe.Sizeof(Space{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*len(seed) {
			t.Skip("longer than any image the seeds can grow into")
		}
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, imgenc.Seal(append([]byte(nil), data[:len(data)-4]...)))
		}
		for _, in := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			spaces, err := DecodeForest(in)
			runtime.ReadMemStats(&after)
			if grew, bound := after.TotalAlloc-before.TotalAlloc, (uint64(len(in))/2+8)*maxObject; grew > bound {
				t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(in), grew, bound)
			}
			if err != nil {
				var fe *ImageFormatError
				var ve *ImageVersionError
				if !errors.As(err, &fe) && !errors.As(err, &ve) {
					t.Fatalf("err = %v (%T), want *ImageFormatError or *ImageVersionError", err, err)
				}
				continue
			}
			first := reencode(spaces)
			for _, s := range spaces {
				s.Free()
			}
			if bytes.Equal(in, seed) && !bytes.Equal(first, seed) {
				t.Fatal("the canonical seed does not re-encode to itself")
			}
			again, err := DecodeForest(first)
			if err != nil {
				t.Fatalf("re-encoded image does not decode: %v", err)
			}
			second := reencode(again)
			for _, s := range again {
				s.Free()
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("re-encoding is not a fixed point (%d then %d bytes)", len(first), len(second))
			}
		}
	})
}
