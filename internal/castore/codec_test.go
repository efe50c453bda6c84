package castore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// record builds a stored blob by hand: tag, u32 length, body.
func record(tag byte, n uint32, body []byte) []byte {
	out := []byte{tag, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(out[1:], n)
	return append(out, body...)
}

// deflate is a valid flate stream of b.
func deflate(t testing.TB, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// noisePage is an incompressible 4 KiB chunk (a fixed LCG stream): the
// payload that takes the raw form.
func noisePage() []byte {
	noise := make([]byte, 4096)
	x := uint32(1)
	for i := range noise {
		x = x*1664525 + 1013904223
		noise[i] = byte(x >> 24)
	}
	return noise
}

// textBlob is n bytes of source-like text, which flate shrinks at any
// length near the floor.
func textBlob(n int) []byte {
	return bytes.Repeat([]byte("static int f(void);\n"), n/20+1)[:n]
}

// sparsePage is the typical checkpoint chunk: one byte set in 4 KiB. It
// takes the flate form.
func sparsePage() []byte { return append([]byte{1}, make([]byte, 4095)...) }

// TestCodecRoundTripEveryForm puts one payload per codec form through
// encodeBlob/decodeBlob — one codec for the whole table, so every chunk
// after the first meets reused compressors — and checks the form chosen
// and the bytes back.
func TestCodecRoundTripEveryForm(t *testing.T) {
	var c codec
	noise := noisePage()
	for _, tc := range []struct {
		name    string
		payload []byte
		tag     byte
	}{
		{"zero page", make([]byte, 4096), codecZero},
		{"empty", nil, codecZero},
		{"sparse page", sparsePage(), codecFlate},
		{"repetitive", bytes.Repeat([]byte("abcd"), 5000), codecFlate},
		{"past the prealloc cap", bytes.Repeat([]byte{7, 9}, decodePrealloc), codecFlate},
		{"incompressible", noise, codecRaw},
		{"tiny", []byte("x"), codecRaw},
		// The floor: text that flate would shrink stays raw one byte under
		// it and is deflated from it on; noise is raw and zeros are
		// elided on either side.
		{"text under the floor", textBlob(flateFloor - 1), codecRaw},
		{"text at the floor", textBlob(flateFloor), codecFlate},
		{"text over the floor", textBlob(flateFloor + 1), codecFlate},
		{"noise under the floor", noise[:flateFloor-1], codecRaw},
		{"noise at the floor", noise[:flateFloor], codecRaw},
		{"noise over the floor", noise[:flateFloor+1], codecRaw},
		{"zeros under the floor", make([]byte, flateFloor-1), codecZero},
		{"zeros at the floor", make([]byte, flateFloor), codecZero},
		{"zeros over the floor", make([]byte, flateFloor+1), codecZero},
	} {
		enc := c.encodeBlob(tc.payload)
		if enc[0] != tc.tag {
			t.Errorf("%s: encoded as %q, want %q", tc.name, enc[0], tc.tag)
		}
		got, err := c.decodeBlob(KeyOf(tc.payload), enc)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(got, tc.payload) {
			t.Errorf("%s: round trip changed the bytes (%d vs %d)", tc.name, len(got), len(tc.payload))
		}
	}
}

// hostileRecord is a stored form no encoder wrote.
type hostileRecord struct {
	name   string
	stored []byte
}

// hostileRecords is the table of malformed stored blobs shared by the
// decode tests and FuzzDecodeBlob's seed corpus.
func hostileRecords(t testing.TB) []hostileRecord {
	small := []byte("sixteen byte msg")
	return []hostileRecord{
		{"empty blob", nil},
		{"unknown tag", []byte{'Q', 1, 2, 3}},
		{"Z claiming 4 GiB", record(codecZero, 0xFFFFFFFF, nil)},
		{"Z just over the ceiling", record(codecZero, MaxChunkSize+1, nil)},
		{"Z truncated", []byte{codecZero, 1, 0}},
		{"Z with trailing bytes", record(codecZero, 8, []byte{0})},
		{"F claiming 4 GiB, no stream", record(codecFlate, 0xFFFFFFFF, nil)},
		{"F claiming 4 GiB, short stream", record(codecFlate, 0xFFFFFFFF, deflate(t, small))},
		{"F header only", []byte{codecFlate, 1, 0}},
		{"F length under the stream's", record(codecFlate, uint32(len(small))-1, deflate(t, small))},
		{"F length over the stream's", record(codecFlate, uint32(len(small))+1, deflate(t, small))},
		{"F lying within the ceiling", record(codecFlate, MaxChunkSize, deflate(t, small))},
		{"F truncated stream", record(codecFlate, uint32(len(small)), deflate(t, small)[:4])},
		{"F garbage stream", record(codecFlate, 16, []byte{0xff, 0xff, 0xff, 0xff})},
	}
}

// TestDecodeHostileRecords feeds decodeBlob the hostile table. Each
// record must fail with the typed corruption error, and none may
// allocate anywhere near the length it claims: the length is read from
// unverified bytes before any hash check. All records go through one
// codec, and after each the same codec must decode a good flate record:
// a pooled reader that has returned an error — truncated, overlong or
// garbage stream — is reused, so its Reset has to clear that error.
func TestDecodeHostileRecords(t *testing.T) {
	var c codec
	good := sparsePage()
	goodEnc := c.encodeBlob(good)
	if goodEnc[0] != codecFlate {
		t.Fatalf("the known-good record took form %q, want flate", goodEnc[0])
	}
	for _, tc := range hostileRecords(t) {
		key := KeyOf([]byte(tc.name))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := c.decodeBlob(key, tc.stored)
		runtime.ReadMemStats(&after)
		var he *ChunkHashError
		if !errors.As(err, &he) || he.Key != key {
			t.Errorf("%s: decoded %d bytes, err %v; want *ChunkHashError for the key", tc.name, len(b), err)
		}
		// The flate case may take decodePrealloc up front (twice under the
		// race detector, which copies on Grow); nothing may take the 64 MiB
		// or 4 GiB it claims.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*decodePrealloc {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, grew)
		}
		if got, err := c.decodeBlob(KeyOf(good), goodEnc); err != nil || !bytes.Equal(got, good) {
			t.Errorf("%s: the next decode on the same codec: %d bytes, err %v", tc.name, len(got), err)
		}
		if n := len(c.inflaters.idle); n != 1 {
			t.Fatalf("%s: %d idle readers, want the one reader reused throughout", tc.name, n)
		}
	}

	// The ceiling is shared with the encoder: what Put accepts, Get can
	// read back; what is larger, Put refuses, typed.
	for name, s := range stores(t) {
		big := make([]byte, MaxChunkSize+1)
		var se *ChunkSizeError
		if err := s.Put(KeyOf(big), big); !errors.As(err, &se) || se.Size != len(big) {
			t.Errorf("%s: Put over the ceiling: %v, want *ChunkSizeError", name, err)
		}
	}
}

// TestGetHostileRecordOnDisk plants the 5-byte record under a real key
// in a DirStore: Get and Stat must report corruption, not allocate 4 GiB.
func TestGetHostileRecordOnDisk(t *testing.T) {
	s, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{3}, 4096)
	key := KeyOf(page)
	if err := s.Put(key, page); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), record(codecZero, 0xFFFFFFFF, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var he *ChunkHashError
	if _, err := s.Get(key); !errors.As(err, &he) {
		t.Fatalf("Get of a hostile record: %v, want *ChunkHashError", err)
	}
	if _, err := s.Stat(key); !errors.As(err, &he) {
		t.Fatalf("Stat of a hostile record: %v, want *ChunkHashError", err)
	}
}

// referenceEncode is encodeBlob as it was before compressors were
// reused: a fresh flate.NewWriter per chunk. Stored bytes are part of
// what the build cache and the session store report (stored sizes), so
// reuse must not change one of them.
func referenceEncode(t testing.TB, b []byte) []byte {
	if allZero(b) {
		return record(codecZero, uint32(len(b)), nil)
	}
	if len(b) >= flateFloor {
		if enc := record(codecFlate, uint32(len(b)), deflate(t, b)); len(enc) < len(b)+1 {
			return enc
		}
	}
	return append([]byte{codecRaw}, b...)
}

// TestReusedWriterMatchesFresh runs a seeded sequence of mixed chunks —
// every codec form, sizes from empty to several windows, compressible
// after incompressible and back — through one codec and requires each
// stored form to be byte-equal to a fresh compressor's.
func TestReusedWriterMatchesFresh(t *testing.T) {
	var c codec
	r := rand.New(rand.NewSource(14))
	forms := map[byte]int{}
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(3)*r.Intn(40000)+r.Intn(5000))
		switch r.Intn(4) {
		case 0: // zeros
		case 1: // sparse
			for j := 0; j < len(b)/500+1 && len(b) > 0; j++ {
				b[r.Intn(len(b))] = byte(1 + r.Intn(255))
			}
		case 2: // text-like
			for j := range b {
				b[j] = "abcdefgh \n"[r.Intn(10)]
			}
		case 3: // noise
			r.Read(b)
		}
		got, want := c.encodeBlob(b), referenceEncode(t, b)
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d (%d bytes): reused writer stored %d bytes (form %q), fresh writer %d (form %q)",
				i, len(b), len(got), got[0], len(want), want[0])
		}
		forms[got[0]]++
		dec, err := c.decodeBlob(KeyOf(b), got)
		if err != nil || !bytes.Equal(dec, b) {
			t.Fatalf("chunk %d: round trip: %d bytes, err %v", i, len(dec), err)
		}
	}
	for _, tag := range []byte{codecZero, codecFlate, codecRaw} {
		if forms[tag] < 10 {
			t.Errorf("form %q seen %d times; the sequence no longer mixes forms", tag, forms[tag])
		}
	}
	if len(c.deflaters.idle) != 1 || len(c.inflaters.idle) != 1 {
		t.Errorf("%d writers and %d readers idle, want one of each reused throughout", len(c.deflaters.idle), len(c.inflaters.idle))
	}
}

// TestOldFlateRecordUnderFloorStillReads plants, in both backends, the
// F record the codec wrote for a 65-byte hex digest before small blobs
// skipped flate: the encoder no longer writes the form at that size, but
// a store written earlier holds it, and Get must decode and verify it.
func TestOldFlateRecordUnderFloorStillReads(t *testing.T) {
	blob := []byte("855551177345c1a0ee22ee543ea7f947dce15554823fff6d05c6a51ff2ef9b92\n")
	old, err := hex.DecodeString("464100000004c0c10143210803d07ba7112422e3504cf61fe1bf0b0066993b30" +
		"d68b7427119b9daac8373400717d4b3a6f614ec324a7ea5ffefb020000ffff")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= flateFloor || old[0] != codecFlate {
		t.Fatalf("the fixture is a %d-byte blob in form %q; want a sub-floor F record", len(blob), old[0])
	}
	key := KeyOf(blob)
	for name, s := range stores(t) {
		if err := s.Put(key, blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		switch s := s.(type) {
		case *MemStore:
			if s.chunks[key][0] != codecRaw {
				t.Errorf("mem: today's form of the blob is %q, want raw", s.chunks[key][0])
			}
			s.chunks[key] = old
		case *DirStore:
			if err := os.WriteFile(s.path(key), old, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := s.Get(key); err != nil || !bytes.Equal(got, blob) {
			t.Errorf("%s: Get of the old record: %q, %v", name, got, err)
		}
		if info, err := s.Stat(key); err != nil || info != (BlobInfo{Size: len(blob), StoredSize: len(old)}) {
			t.Errorf("%s: Stat of the old record: %+v, %v", name, info, err)
		}
	}
}

// BenchmarkEncodeBlob times one reused codec on the sizes a build cache
// sees: a 64-byte digest and a 200-byte manifest of keys, both under the
// floor, and a 4 KiB text page, which is deflated.
func BenchmarkEncodeBlob(b *testing.B) {
	for _, n := range []int{64, 200, 4096} {
		blob := textBlob(n)
		if n < flateFloor { // what small blobs are made of: hashes
			rand.New(rand.NewSource(int64(n))).Read(blob)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var c codec
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = c.encodeBlob(blob)
			}
		})
	}
}

var encodeSink []byte

// FuzzDecodeBlob throws arbitrary stored bytes at decodeBlob. Whatever
// arrives, the decoder returns either bytes whose length is the one the
// record's header claims or a *ChunkHashError for the key; it never
// panics; it never allocates past a small multiple of MaxChunkSize,
// whatever length the record claims; and — because the reader it used
// goes back on the codec's free list — the same codec decodes a
// known-good flate record correctly straight afterwards.
func FuzzDecodeBlob(f *testing.F) {
	for _, tc := range hostileRecords(f) {
		f.Add(tc.stored)
	}
	var c codec
	good := sparsePage()
	goodKey, goodEnc := KeyOf(good), c.encodeBlob(good)
	for _, b := range [][]byte{good, noisePage(), make([]byte, 4096), []byte("x")} {
		f.Add(c.encodeBlob(b))
	}
	f.Fuzz(func(t *testing.T, stored []byte) {
		key := KeyOf(stored)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := c.decodeBlob(key, stored)
		runtime.ReadMemStats(&after)
		if err != nil {
			var he *ChunkHashError
			if !errors.As(err, &he) || he.Key != key {
				t.Fatalf("err = %v, want *ChunkHashError for the key", err)
			}
		} else {
			claim := len(stored) - 1 // raw: everything after the tag
			if stored[0] != codecRaw {
				claim = int(binary.LittleEndian.Uint32(stored[1:]))
			}
			if len(b) != claim {
				t.Fatalf("decoded %d bytes from a %q record claiming %d", len(b), stored[0], claim)
			}
		}
		// A buffer grown by doubling to n bytes has allocated under 4n.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*MaxChunkSize+decodePrealloc {
			t.Fatalf("decoding %d stored bytes allocated %d", len(stored), grew)
		}
		if got, err := c.decodeBlob(goodKey, goodEnc); err != nil || !bytes.Equal(got, good) {
			t.Fatalf("known-good record after this input: %d bytes, err %v", len(got), err)
		}
	})
}
