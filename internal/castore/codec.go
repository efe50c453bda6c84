package castore

// The chunk codec: the per-chunk compression both backends apply before
// holding bytes. Checkpoint chunks are dominated by 4 KiB pages that are
// mostly zeros (lazily-mapped regions, sparsely dirtied pages), so the
// codec tries, in order:
//
//   - zero elision: an all-zero chunk stores as a 5-byte record;
//   - flate: kept only when it actually shrinks the chunk;
//   - raw: the identity fallback, so encoding never grows a chunk by
//     more than the 1-byte tag (plus a 4-byte length for the sized
//     forms).
//
// The codec is an internal representation detail: keys are computed over
// the uncompressed bytes and Get always returns them, so two backends
// with different codec outcomes still agree on every key.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// MaxChunkSize is the largest blob a store accepts (Put refuses more
// with *ChunkSizeError) and therefore the largest length a stored record
// may claim. The decoder checks the claim before it allocates: the
// length fields below are read from bytes that came off a disk and have
// not been hashed yet, so without the ceiling a five-byte record could
// demand 4 GiB. Every chunk this module writes — 4 KiB pages, table
// chunks, manifests, a build task's output files — is far below it.
const MaxChunkSize = 64 << 20

// decodePrealloc caps what a flate record's length field alone can make
// the decoder allocate up front; past it the buffer grows only as
// decompressed bytes actually arrive.
const decodePrealloc = 1 << 20

// ChunkSizeError reports a Put of a blob larger than MaxChunkSize.
type ChunkSizeError struct {
	Key  Key
	Size int
}

func (e *ChunkSizeError) Error() string {
	return fmt.Sprintf("castore: chunk %s is %d bytes, over the %d-byte chunk ceiling", e.Key, e.Size, MaxChunkSize)
}

// checkSize is the Put-side half of the ceiling.
func checkSize(key Key, b []byte) error {
	if len(b) > MaxChunkSize {
		return &ChunkSizeError{Key: key, Size: len(b)}
	}
	return nil
}

// Codec tags, the first byte of every stored blob.
const (
	codecRaw   = 'R' // tag | raw bytes
	codecZero  = 'Z' // tag | u32 length (all-zero chunk)
	codecFlate = 'F' // tag | u32 raw length | flate stream
)

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// encodeBlob compresses b for storage.
func encodeBlob(b []byte) []byte {
	if allZero(b) {
		out := make([]byte, 5)
		out[0] = codecZero
		binary.LittleEndian.PutUint32(out[1:], uint32(len(b)))
		return out
	}
	var buf bytes.Buffer
	buf.WriteByte(codecFlate)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(b)))
	buf.Write(lenb[:])
	w, _ := flate.NewWriter(&buf, flate.BestSpeed)
	_, _ = w.Write(b)
	_ = w.Close()
	if buf.Len() < len(b)+1 {
		return buf.Bytes()
	}
	out := make([]byte, 0, len(b)+1)
	out = append(out, codecRaw)
	return append(out, b...)
}

// decodeBlob reverses encodeBlob. A structurally broken stored blob is
// reported as corruption at the given key: the hash error the caller
// would have produced had the bytes decoded to garbage.
func decodeBlob(key Key, stored []byte) ([]byte, error) {
	corrupt := &ChunkHashError{Key: key}
	if len(stored) == 0 {
		return nil, corrupt
	}
	switch stored[0] {
	case codecRaw:
		return stored[1:], nil
	case codecZero:
		if len(stored) != 5 {
			return nil, corrupt
		}
		n := binary.LittleEndian.Uint32(stored[1:])
		if n > MaxChunkSize {
			return nil, corrupt
		}
		return make([]byte, n), nil
	case codecFlate:
		if len(stored) < 5 {
			return nil, corrupt
		}
		n := int64(binary.LittleEndian.Uint32(stored[1:]))
		if n > MaxChunkSize {
			return nil, corrupt
		}
		// Read one byte past the claimed length: a stream that is shorter
		// or longer than its header says is corrupt either way, and the
		// limit bounds what a lying header or a flate bomb can cost.
		r := &io.LimitedReader{R: flate.NewReader(bytes.NewReader(stored[5:])), N: n + 1}
		var out bytes.Buffer
		out.Grow(int(min(n, decodePrealloc)) + bytes.MinRead)
		if _, err := out.ReadFrom(r); err != nil || int64(out.Len()) != n {
			return nil, corrupt
		}
		return out.Bytes(), nil
	default:
		return nil, corrupt
	}
}
