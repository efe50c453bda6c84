// Package imgenc is the one way bytes from a disk or a socket are framed
// and walked: the envelope every binary format wears (magic, version
// byte, payload, CRC32 trailer — Seal and Open) and the bounds-checked
// cursor every payload is read through (Reader). Each layer keeps its
// own typed error; the reader takes a constructor so a decoding failure
// surfaces as that layer's error with the offset it happened at.
package imgenc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Reader is a sticky-error cursor over an image payload: the first
// failure (truncation, bad count) is recorded and every later read
// returns zero values, so decoders can be written straight-line and
// check Err once per section.
type Reader struct {
	B    []byte
	Off  int
	Err  error
	Wrap func(off int, msg string) error // builds the layer's typed error
}

// Failf records a decoding failure at the current offset (first one wins).
func (r *Reader) Failf(format string, args ...any) {
	if r.Err == nil {
		r.Err = r.Wrap(r.Off, fmt.Sprintf(format, args...))
	}
}

// Take consumes n bytes, failing on truncation.
func (r *Reader) Take(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if n < 0 || r.Off+n > len(r.B) {
		r.Failf("truncated (%d bytes wanted, %d left)", n, len(r.B)-r.Off)
		return nil
	}
	p := r.B[r.Off : r.Off+n]
	r.Off += n
	return p
}

func (r *Reader) U8() byte {
	p := r.Take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *Reader) U16() uint16 {
	p := r.Take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *Reader) U32() uint32 {
	p := r.Take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *Reader) U64() uint64 {
	p := r.Take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bytes reads a u32-length-prefixed section. The result aliases the
// image.
func (r *Reader) Bytes() []byte { return r.Take(r.Count(1, "section byte")) }

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Remaining reports the bytes left after the cursor.
func (r *Reader) Remaining() int { return len(r.B) - r.Off }

// Count reads a u32 element count and fails unless that many elements,
// each at least unit bytes long, could still follow. A failed count
// reads as zero: nothing may be sized by a number the image made up.
func (r *Reader) Count(unit int, what string) int {
	return r.bound(int(r.U32()), unit, what)
}

// Count16 is Count for the formats' u16 counts.
func (r *Reader) Count16(unit int, what string) int {
	return r.bound(int(r.U16()), unit, what)
}

func (r *Reader) bound(n, unit int, what string) int {
	if r.Err == nil && (n < 0 || n > r.Remaining()/unit) {
		r.Failf("%s count %d exceeds image size", what, n)
	}
	if r.Err != nil {
		return 0
	}
	return n
}

// Done ends a decode: bytes left unread are a failure, and the first
// error of the whole walk (this one included) is returned.
func (r *Reader) Done() error {
	if r.Err == nil && r.Remaining() != 0 {
		r.Failf("%d trailing bytes", r.Remaining())
	}
	return r.Err
}

// Seal appends the CRC32 trailer that Open verifies.
func Seal(b []byte) []byte {
	return append(b, binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(b))...)
}

// Open verifies an image's framing — length, CRC32 trailer, magic and
// version byte — and returns a Reader positioned just past the header.
// Framing problems surface through wrap (the layer's corrupt-image
// error); an unexpected version goes through badVersion so each layer
// keeps its typed version error. The magic is a (4-byte) string so
// every layer can declare it const — package-level mutable state is
// banned in the deterministic packages (detlint globalmut).
func Open(data []byte, magic string, version byte, wrap func(off int, msg string) error,
	badVersion func(v byte) error) (*Reader, error) {
	if len(data) < len(magic)+1+4 {
		return nil, wrap(0, "short image")
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return nil, wrap(len(payload), "checksum mismatch (corrupt image)")
	}
	r := &Reader{B: payload, Wrap: wrap}
	if got := r.Take(len(magic)); r.Err == nil && string(got) != magic {
		return nil, wrap(0, "bad magic")
	}
	if v := r.U8(); r.Err == nil && v != version {
		return nil, badVersion(v)
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return r, nil
}
