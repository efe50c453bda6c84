package castore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"strings"
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

// noise is n incompressible bytes (a fixed LCG stream): the payload that
// takes the raw form. Every prefix of a longer stream is a shorter one.
func noise(n int) []byte {
	b := make([]byte, n)
	x := uint32(1)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// wordText is n bytes of prose: words of a small vocabulary in a fixed
// pseudo-random order, broken into short lines — what a build's text
// outputs look like, and what flate shrinks at any length.
func wordText(n int) []byte {
	words := strings.Fields("the build stores each output under the key of its action and inputs so a warm run fetches what a cold one made")
	b := make([]byte, 0, n+16)
	x := uint32(5)
	for len(b) < n {
		x = x*1664525 + 1013904223
		b = append(b, words[(x>>24)%uint32(len(words))]...)
		b = append(b, " \n"[(x>>20)&1])
	}
	return b[:n]
}

// sparsePage is the typical checkpoint chunk: one byte set in 4 KiB. It
// takes the flate form.
func sparsePage() []byte { return append([]byte{1}, make([]byte, 4095)...) }

// storedForm is the codec tag s holds key under.
func storedForm(t *testing.T, s Store, key Key) byte {
	t.Helper()
	switch s := s.(type) {
	case *MemStore:
		return s.chunks[key][0]
	case *DirStore:
		b, err := os.ReadFile(s.path(key))
		if err != nil {
			t.Fatal(err)
		}
		return b[0]
	}
	t.Fatalf("no stored form for a %T", s)
	return 0
}

// TestCodecRoundTripEveryForm puts one payload per codec form through
// encodeBlob/decodeBlob — one codec for the whole table, so every chunk
// after the first meets reused compressors — and checks the form chosen
// and the bytes back. The floor rows also go through Put on both
// backends, which must hold them in the same form.
func TestCodecRoundTripEveryForm(t *testing.T) {
	var c codec
	stream := noise(2 * flateFloor)
	for _, tc := range []struct {
		name    string
		payload []byte
		tag     byte
		put     bool // also Put it on both backends
	}{
		{"zero page", make([]byte, 4096), codecZero, false},
		{"empty", nil, codecZero, false},
		{"sparse page", sparsePage(), codecFlate, false},
		{"repetitive", bytes.Repeat([]byte("abcd"), 5000), codecFlate, false},
		{"past the prealloc cap", bytes.Repeat([]byte{7, 9}, decodePrealloc), codecFlate, false},
		{"incompressible", stream[:4096], codecRaw, false},
		{"tiny", []byte("x"), codecRaw, false},
		// The floor, one block: text that flate would shrink stays raw
		// one byte under it and is deflated from it on; noise is raw and
		// zeros are elided on either side.
		{"text under the floor", wordText(flateFloor - 1), codecRaw, true},
		{"text at the floor", wordText(flateFloor), codecFlate, true},
		{"text over the floor", wordText(flateFloor + 1), codecFlate, true},
		{"noise under the floor", stream[:flateFloor-1], codecRaw, true},
		{"noise at the floor", stream[:flateFloor], codecRaw, true},
		{"noise over the floor", stream[:flateFloor+1], codecRaw, true},
		{"zeros under the floor", make([]byte, flateFloor-1), codecZero, true},
		{"zeros at the floor", make([]byte, flateFloor), codecZero, true},
		{"zeros over the floor", make([]byte, flateFloor+1), codecZero, true},
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
		if !tc.put {
			continue
		}
		key := KeyOf(tc.payload)
		for name, s := range stores(t) {
			if err := s.Put(key, tc.payload); err != nil {
				t.Fatalf("%s: %s: %v", tc.name, name, err)
			}
			if tag := storedForm(t, s, key); tag != tc.tag {
				t.Errorf("%s: %s holds it as %q, want %q", tc.name, name, tag, tc.tag)
			}
			if got, err := s.Get(key); err != nil || !bytes.Equal(got, tc.payload) {
				t.Errorf("%s: %s: Get returned %d bytes, %v", tc.name, name, len(got), err)
			}
		}
	}
}

// TestEncodeBlobProperties holds encodeBlob to its contract over seeded
// chunks of every kind on both sides of the floor: the blob decodes back
// to the chunk, it is never more than 5 bytes longer than the chunk, and
// a chunk under the floor is never written as an F record.
func TestEncodeBlobProperties(t *testing.T) {
	var c codec
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 400; i++ {
		n := r.Intn(2 * flateFloor)
		if r.Intn(4) == 0 {
			n = flateFloor - 2 + r.Intn(4) // crowd the floor itself
		}
		var b []byte
		switch r.Intn(4) {
		case 0:
			b = make([]byte, n)
		case 1:
			b = make([]byte, n)
			if n > 0 {
				b[r.Intn(n)] = 1
			}
		case 2:
			b = wordText(n)
		case 3:
			b = make([]byte, n)
			r.Read(b)
		}
		enc := c.encodeBlob(b)
		if len(enc) > len(b)+5 {
			t.Fatalf("chunk %d: %d bytes encoded to %d", i, len(b), len(enc))
		}
		if len(b) < flateFloor && enc[0] == codecFlate {
			t.Fatalf("chunk %d: %d bytes, under the floor, written as an F record", i, len(b))
		}
		if got, err := c.decodeBlob(KeyOf(b), enc); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("chunk %d: %d bytes round-tripped to %d, %v", i, len(b), len(got), err)
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

// TestOldFlateRecordUnderFloorStillReads plants, in both backends, F
// records that earlier encoders wrote under today's floor: one for a
// 65-byte hex digest, from before small blobs skipped flate, and one for
// 520 bytes of wordText, from when the floor was 256 bytes. The encoder
// no longer writes the form at those sizes, but a store written earlier
// holds it, and Get and Stat must decode and verify it.
func TestOldFlateRecordUnderFloorStillReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		blob []byte
		old  string // the stored record, hex
	}{
		{"hex digest", []byte("855551177345c1a0ee22ee543ea7f947dce15554823fff6d05c6a51ff2ef9b92\n"),
			"464100000004c0c10143210803d07ba7112422e3504cf61fe1bf0b0066993b30" +
				"d68b7427119b9daac8373400717d4b3a6f614ec324a7ea5ffefb020000ffff"},
		{"520 B of text", wordText(520),
			"460802000054504baec33008dc738ab91a2f7164abad8962aca8b77f1a70165d" +
				"34b560989fa2e85671cd2eda77f9e85ee0b5a0f573fa10ddbc59c730dc7a7d84" +
				"b0bbaaaf75deaa341f3c9257f9ca517cab65c866ef3d3fe4143bf06c6e32792d" +
				"b1456c872d25196ed773fd37db7b977402f2a509eb45c2f4ec7bb9f02adf5c72" +
				"6e4762b8ffb1826111d2a69fd3b164d61f63850f265f9139632ed293996fb242" +
				"318cc0f825ddf2c80988e32da9e83988a1b00399872511143528b91fc925151b" +
				"f6197a248aa6f82064d5a2cc4ad344e62c0b113b44539a7ef3434156beca4cdb" +
				"68fd9c3ed07cc87f000000ffff"},
	} {
		old, err := hex.DecodeString(tc.old)
		if err != nil {
			t.Fatal(err)
		}
		if len(tc.blob) >= flateFloor || old[0] != codecFlate {
			t.Fatalf("%s: the fixture is a %d-byte blob in form %q; want a sub-floor F record", tc.name, len(tc.blob), old[0])
		}
		key := KeyOf(tc.blob)
		for name, s := range stores(t) {
			if err := s.Put(key, tc.blob); err != nil {
				t.Fatalf("%s: %s: %v", tc.name, name, err)
			}
			if tag := storedForm(t, s, key); tag != codecRaw {
				t.Errorf("%s: %s: today's form of the blob is %q, want raw", tc.name, name, tag)
			}
			switch s := s.(type) {
			case *MemStore:
				s.chunks[key] = old
			case *DirStore:
				if err := os.WriteFile(s.path(key), old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := s.Get(key); err != nil || !bytes.Equal(got, tc.blob) {
				t.Errorf("%s: %s: Get of the old record: %q, %v", tc.name, name, got, err)
			}
			if info, err := s.Stat(key); err != nil || info != (BlobInfo{Size: len(tc.blob), StoredSize: len(old)}) {
				t.Errorf("%s: %s: Stat of the old record: %+v, %v", tc.name, name, info, err)
			}
		}
	}
}

// BenchmarkEncodeBlob times one reused codec on what a store is handed,
// the ruler for flateFloor: random bytes the size of a digest and of a
// manifest of keys; word text at three sizes under the floor, stored raw
// (deflating them is what the floor saves); word text of one block,
// deflated; and a random block, deflated and then thrown away for raw,
// which is the cost still paid per incompressible page.
func BenchmarkEncodeBlob(b *testing.B) {
	for _, row := range []struct {
		name string
		blob []byte
	}{
		{"random/64", noise(64)},
		{"random/200", noise(200)},
		{"text/520", wordText(520)},
		{"text/1560", wordText(1560)},
		{"text/3000", wordText(3000)},
		{"text/4096", wordText(4096)},
		{"random/4096", noise(4096)},
	} {
		b.Run(row.name, func(b *testing.B) {
			var c codec
			b.SetBytes(int64(len(row.blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = c.encodeBlob(row.blob)
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
	for _, b := range [][]byte{good, noise(4096), make([]byte, 4096), []byte("x")} {
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
