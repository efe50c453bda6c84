package castore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
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
func deflate(t *testing.T, b []byte) []byte {
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

// TestCodecRoundTripEveryForm puts one payload per codec form through
// encodeBlob/decodeBlob and checks the form chosen and the bytes back.
func TestCodecRoundTripEveryForm(t *testing.T) {
	noise := make([]byte, 4096) // incompressible: a fixed LCG stream
	x := uint32(1)
	for i := range noise {
		x = x*1664525 + 1013904223
		noise[i] = byte(x >> 24)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		tag     byte
	}{
		{"zero page", make([]byte, 4096), codecZero},
		{"empty", nil, codecZero},
		{"sparse page", append([]byte{1}, make([]byte, 4095)...), codecFlate},
		{"repetitive", bytes.Repeat([]byte("abcd"), 5000), codecFlate},
		{"past the prealloc cap", bytes.Repeat([]byte{7, 9}, decodePrealloc), codecFlate},
		{"incompressible", noise, codecRaw},
		{"tiny", []byte("x"), codecRaw},
	} {
		enc := encodeBlob(tc.payload)
		if enc[0] != tc.tag {
			t.Errorf("%s: encoded as %q, want %q", tc.name, enc[0], tc.tag)
		}
		got, err := decodeBlob(KeyOf(tc.payload), enc)
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(got, tc.payload) {
			t.Errorf("%s: round trip changed the bytes (%d vs %d)", tc.name, len(got), len(tc.payload))
		}
	}
}

// TestDecodeHostileRecords feeds decodeBlob stored forms no encoder
// wrote. Each must fail with the typed corruption error, and none may
// allocate anywhere near the length it claims: the length is read from
// unverified bytes before any hash check.
func TestDecodeHostileRecords(t *testing.T) {
	small := []byte("sixteen byte msg")
	for _, tc := range []struct {
		name   string
		stored []byte
	}{
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
		{"F garbage stream", record(codecFlate, 16, []byte{0xff, 0xff, 0xff, 0xff})},
	} {
		key := KeyOf([]byte(tc.name))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := decodeBlob(key, tc.stored)
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
