package castore

// The chunk codec: the per-chunk compression both backends apply before
// holding bytes. Checkpoint chunks are dominated by 4 KiB pages that are
// mostly zeros (lazily-mapped regions, sparsely dirtied pages), so the
// codec tries, in order:
//
//   - zero elision: an all-zero chunk stores as a 5-byte record;
//   - the block floor: a chunk shorter than one 4 KiB block (flateFloor)
//     goes straight to raw — hashes, manifests, table layouts and most
//     build outputs;
//   - flate: a chunk of a block or more is deflated, and the result kept
//     only when it actually shrinks the chunk;
//   - raw: the identity fallback, so encoding never grows a chunk by
//     more than the 1-byte tag (plus a 4-byte length for the sized
//     forms).
//
// The codec is an internal representation detail: keys are computed over
// the uncompressed bytes and Get always returns them, so two backends
// with different codec outcomes still agree on every key.
//
// Compressor ownership. A flate.Writer is about a megabyte of hash
// tables and a flate reader some 40 KiB of window, both zeroed at
// construction — far more work than deflating one 4 KiB page. Each store
// therefore owns a codec value holding free lists of both, takes one per
// chunk and Resets it: Writer.Reset is specified to leave the writer
// equivalent to a fresh NewWriter at the same level, and the reader's
// Reset re-initialises all decoder state including a sticky error, so
// stored bytes and decode verdicts are those of a fresh instance every
// time (codec_test.go pins both). The lists live in the store, not in a
// package variable: a store's compressors die with it and no state is
// shared between stores. They grow to the peak number of concurrent
// encodes or decodes the store has seen, which its callers' worker pools
// bound.
//
// Locking. The free lists' own mutexes guard only the lists — never a
// compression — and the stores call encodeBlob and decodeBlob outside
// their locks, so one large Put does not stall every other worker's Get.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
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

// flateFloor is the size under which encodeBlob does not try flate: one
// 4 KiB filesystem block. A DirStore chunk shorter than a block fills one
// block whether it was deflated or not, so flate there saves no disk, and
// what it costs is building a Huffman code, not scanning bytes: with one
// reused BestSpeed writer (BenchmarkEncodeBlob, 2 vCPU dev VM) 520,
// 1 560 and 3 000 B of text took 8.0, 14.2 and 20.8 µs to deflate and
// take 0.15–0.6 µs raw, and a store's first deflate also builds its
// ~1 MB writer. Storing such chunks raw left the 166 chunk files of the
// five benchmark build shapes' DirStore at 1 328 sectors (st_blocks) and
// grew their apparent bytes, as a MemStore's stored bytes, 16 388 →
// 20 992. The benchmark's cold build pass had spent 9 % of its time
// deflating them, and the warm pass 6 % inflating (docs/perf.md). The
// decoder knows nothing of the floor: an F record of any length still
// decodes.
const flateFloor = 4096

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

// A deflater is one reusable compressor and the scratch buffer it
// writes to.
type deflater struct {
	buf bytes.Buffer
	w   *flate.Writer
}

// An inflater is one reusable decompressor over its own source reader.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser // flate reader over &src; implements flate.Resetter
}

// freeList is a stack of idle *T.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// get pops an idle item; nil means there is none and the caller makes one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return nil
	}
	x := l.idle[n-1]
	l.idle = l.idle[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.idle = append(l.idle, x)
	l.mu.Unlock()
}

// codec is a store's chunk codec: encodeBlob and decodeBlob plus the
// compressors they reuse. The zero value is ready to use; it must not be
// copied after first use.
type codec struct {
	deflaters freeList[deflater]
	inflaters freeList[inflater]
}

// encodeBlob compresses b for storage. The result is freshly allocated
// and exactly sized.
func (c *codec) encodeBlob(b []byte) []byte {
	if allZero(b) {
		out := make([]byte, 5)
		out[0] = codecZero
		binary.LittleEndian.PutUint32(out[1:], uint32(len(b)))
		return out
	}
	if len(b) < flateFloor {
		return rawBlob(b)
	}
	d := c.deflaters.get()
	if d == nil {
		d = &deflater{}
		d.w, _ = flate.NewWriter(&d.buf, flate.BestSpeed) // errs only on an invalid level
	}
	defer func() {
		if d.buf.Cap() > decodePrealloc {
			d.buf = bytes.Buffer{} // don't pin a huge chunk's scratch for the store's lifetime
		}
		c.deflaters.put(d)
	}()
	d.buf.Reset()
	d.buf.WriteByte(codecFlate)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(b)))
	d.buf.Write(lenb[:])
	d.w.Reset(&d.buf)
	_, _ = d.w.Write(b) // a bytes.Buffer does not fail
	_ = d.w.Close()
	if d.buf.Len() < len(b)+1 {
		return bytes.Clone(d.buf.Bytes())
	}
	return rawBlob(b)
}

// rawBlob is b in the raw form.
func rawBlob(b []byte) []byte {
	out := make([]byte, 0, len(b)+1)
	out = append(out, codecRaw)
	return append(out, b...)
}

// decodeBlob reverses encodeBlob. A structurally broken stored blob is
// reported as corruption at the given key: the hash error the caller
// would have produced had the bytes decoded to garbage. The raw form
// decodes to a view of stored, not a copy; every other result is fresh.
func (c *codec) decodeBlob(key Key, stored []byte) ([]byte, error) {
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
		in := c.inflaters.get()
		if in == nil {
			in = &inflater{}
			in.r = flate.NewReader(&in.src)
		}
		defer func() {
			in.src.Reset(nil) // drop the reference to the caller's stored bytes
			c.inflaters.put(in)
		}()
		in.src.Reset(stored[5:])
		if err := in.r.(flate.Resetter).Reset(&in.src, nil); err != nil {
			return nil, corrupt
		}
		r := &io.LimitedReader{R: in.r, N: n + 1}
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
