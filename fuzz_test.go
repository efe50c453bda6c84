package repro

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/castore"
	"repro/internal/imgenc"
)

// resealed returns data as given and, when it is long enough to have
// one, with its CRC trailer recomputed — so that a mutation reaches the
// decoder behind the envelope instead of dying at the checksum.
func resealed(data []byte) [][]byte {
	if len(data) < 4 {
		return [][]byte{data}
	}
	return [][]byte{data, imgenc.Seal(append([]byte(nil), data[:len(data)-4]...))}
}

// allocated runs fn and returns what the process allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzImages are session images the session tests already build, one
// per thing an image can carry: a plain fork/join machine, a cluster run
// with thread placements, a recorded run with its trace prefix, and a
// uproc run with its user sections.
func fuzzImages(f *testing.F) [][]byte {
	reg := uprocTestRegistry()
	var out [][]byte
	for _, c := range []struct {
		opts []SessionOption
		p    Program
	}{
		{[]SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})}, arrayProgram(2, 2, 64, -1, nil)},
		{[]SessionOption{WithMachine(MachineConfig{Nodes: 2, CPUsPerNode: 1})}, arrayProgram(2, 2, 64, -1, func(i int) int { return i % 2 })},
		{[]SessionOption{WithRecord()}, deviceProgram(2, 2)},
		{[]SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})}, uprocTestProgram(reg)},
	} {
		img, err := mustSession(f, c.opts...).RunToCheckpoint(c.p, 1)
		if err != nil {
			f.Fatal(err)
		}
		b, err := img.Bytes()
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeImage mutates session images against DecodeImage's contract:
// an input either fails as *ImageError or decodes to an image whose
// encoding is a fixed point — it decodes back to a deeply equal image
// and encodes to the same bytes (the first encoding may normalize: the
// encoder sorts what the decoder accepts in any order). It never panics,
// and what it allocates follows from the bytes it was given, never from
// a count field.
func FuzzDecodeImage(f *testing.F) {
	longest := 0
	for _, b := range fuzzImages(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:9])
		longest = max(longest, len(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*longest {
			t.Skip("longer than any image the seeds can grow into")
		}
		for _, in := range resealed(data) {
			var im *Image
			var err error
			// A placement is 16 bytes and a section at least 8, each a map
			// entry; a trace prefix is JSON, where two bytes can be an
			// int64 of a slice that grew by doubling.
			if grew, bound := allocated(func() { im, err = DecodeImage(in) }), uint64(64*len(in))+64<<10; grew > bound {
				t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(in), grew, bound)
			}
			if err != nil {
				if !errors.As(err, new(*ImageError)) {
					t.Fatalf("DecodeImage: %v (%T), want *ImageError", err, err)
				}
				continue
			}
			enc, err := im.Bytes()
			if err != nil {
				t.Fatalf("a decoded image does not encode: %v", err)
			}
			again, err := DecodeImage(enc)
			if err != nil {
				t.Fatalf("an encoded image does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, im) {
				t.Fatalf("image changed across encode/decode:\n got %+v\nwant %+v", again, im)
			}
			if enc2, err := again.Bytes(); err != nil || !bytes.Equal(enc2, enc) {
				t.Fatalf("encoding is not a fixed point (%d then %d bytes, err %v)", len(enc), len(enc2), err)
			}
		}
	})
}

// FuzzDecodeManifest mutates manifests — a chain's first and a chained
// one — against DecodeManifest's contract: an input either fails as
// *ManifestError or is a manifest whose Bytes are the input, whose Key
// is the input's content key and whose parent and sequence number read
// back the same from those bytes. It never panics, and its reference
// lists cost what their bytes do, whatever their counts claim.
func FuzzDecodeManifest(f *testing.F) {
	store := NewMemStore()
	s := mustSession(f, WithMachine(MachineConfig{CPUsPerNode: 2}))
	p := arrayProgram(2, 3, 64, -1, nil)
	if err := s.Bind(p); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Step(1); err != nil {
			f.Fatal(err)
		}
		m, err := s.Suspend(store)
		if err != nil {
			f.Fatal(err)
		}
		if _, chained := m.Parent(); chained != (i == 1) {
			f.Fatalf("save %d: chained = %v", i, chained)
		}
		b := m.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-5])
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range resealed(data) {
			var m *Manifest
			var err error
			if grew, bound := allocated(func() { m, err = DecodeManifest(in) }), uint64(8*len(in))+64<<10; grew > bound {
				t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(in), grew, bound)
			}
			if err != nil {
				if !errors.As(err, new(*ManifestError)) {
					t.Fatalf("DecodeManifest: %v (%T), want *ManifestError", err, err)
				}
				continue
			}
			if !bytes.Equal(m.Bytes(), in) || m.Key() != castore.KeyOf(in) {
				t.Fatalf("manifest %s does not carry the %d bytes it was decoded from", m.Key(), len(in))
			}
			again, err := DecodeManifest(m.Bytes())
			if err != nil {
				t.Fatalf("a manifest's bytes do not decode: %v", err)
			}
			wantParent, wantChained := m.Parent()
			if parent, chained := again.Parent(); again.Key() != m.Key() || again.Seq() != m.Seq() || parent != wantParent || chained != wantChained {
				t.Fatalf("manifest changed across Bytes/DecodeManifest: %+v then %+v", m, again)
			}
		}
	})
}
