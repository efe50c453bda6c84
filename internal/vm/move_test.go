package vm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The word encoding move must reproduce, spelled out one element at a
// time with encoding/binary, as move itself does on a big-endian host.

func encodeWords[T word](b []byte, v []T) {
	for i, x := range v {
		switch x := any(x).(type) {
		case uint32:
			binary.LittleEndian.PutUint32(b[4*i:], x)
		case float64:
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
	}
}

func decodeWords[T word](v []T, b []byte) {
	for i := range v {
		switch p := any(&v[i]).(type) {
		case *uint32:
			*p = binary.LittleEndian.Uint32(b[4*i:])
		case *float64:
			*p = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// wordBits is x's bit pattern, so a NaN compares equal to itself and -0
// differs from +0.
func wordBits[T word](x T) uint64 {
	switch x := any(x).(type) {
	case uint32:
		return uint64(x)
	case float64:
		return math.Float64bits(x)
	}
	panic("unreachable")
}

func wordOf[T word](u uint64) T {
	var x T
	switch p := any(&x).(type) {
	case *uint32:
		*p = uint32(u)
	case *float64:
		*p = math.Float64frombits(u)
	}
	return x
}

// specialF64s are the float64 bit patterns a float conversion could
// disturb: a signalling NaN, a quiet NaN with a payload, -0, the smallest
// and largest subnormals and ±Inf.
var specialF64s = []uint64{
	0x7ff0000000000001, 0xfff8_0000_dead_beef, 0x8000000000000000,
	0x0000000000000001, 0x000fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000,
}

const maxMoveWords = 1100 // more than two pages of float64s

// TestMoveMatchesWordEncoding holds move, and the bulk accessors around
// it, to the per-word encoding above in both directions: every run length
// from 0 to maxMoveWords, starting element-aligned, unaligned, and on the
// last word of a page. Bytes outside the run must keep their sentinel.
// Copying in the wrong direction, or len(v) bytes instead of len(b), fails
// it.
func TestMoveMatchesWordEncoding(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { checkMove(t, 4, (*Space).ReadU32s, (*Space).WriteU32s) })
	t.Run("float64", func(t *testing.T) { checkMove(t, 8, (*Space).ReadF64s, (*Space).WriteF64s) })
}

func checkMove[T word](t *testing.T, size int, read, write func(*Space, Addr, []T) error) {
	rng := rand.New(rand.NewSource(int64(size)))
	vals := make([]T, maxMoveWords)
	for i := range vals {
		u := rng.Uint64()
		if size == 8 && i%3 == 0 {
			u = specialF64s[(i/3)%len(specialF64s)]
		}
		vals[i] = wordOf[T](u)
	}
	const pages = 4
	noise := make([]byte, pages*PageSize) // what a load reads
	rng.Read(noise)
	sentinel := bytes.Repeat([]byte{0xa5}, pages*PageSize)

	s := NewSpace()
	if err := s.SetPerm(0, pages*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pages*PageSize)
	want := make([]byte, pages*PageSize)
	got := make([]T, maxMoveWords)
	for _, off := range []int{0, 3, PageSize - size} { // aligned, unaligned, last word of the page
		for n := 0; n <= maxMoveWords; n++ {
			v, span := vals[:n], n*size
			copy(want, sentinel)
			encodeWords(want[off:], v)

			// move itself, on a run starting off bytes into a buffer.
			copy(buf, sentinel)
			move(v, buf[off:off+span], true)
			if !bytes.Equal(buf, want) {
				t.Fatalf("store of %d words at offset %d: bytes differ from the word encoding", n, off)
			}
			loaded := got[:n]
			clear(loaded)
			move(loaded, noise[off:off+span], false)
			checkWords(t, "move load", n, off, loaded, noise[off:])

			// The accessors, which hand move in-page runs and stage the
			// element astride a page boundary.
			if err := s.Write(0, sentinel); err != nil {
				t.Fatal(err)
			}
			if err := write(s, Addr(off), v); err != nil {
				t.Fatal(err)
			}
			if err := s.Read(0, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("accessor store of %d words at offset %d: bytes differ from the word encoding", n, off)
			}
			clear(loaded)
			if err := read(s, Addr(off), loaded); err != nil {
				t.Fatal(err)
			}
			for i := range loaded {
				if wordBits(loaded[i]) != wordBits(v[i]) {
					t.Fatalf("round trip of %d words at offset %d: word %d is %#x, stored %#x",
						n, off, i, wordBits(loaded[i]), wordBits(v[i]))
				}
			}
			if err := s.Write(0, noise); err != nil {
				t.Fatal(err)
			}
			clear(loaded)
			if err := read(s, Addr(off), loaded); err != nil {
				t.Fatal(err)
			}
			checkWords(t, "accessor load", n, off, loaded, noise[off:])
		}
	}
}

// checkWords fails t unless v is the decoding of b's first len(v) words.
func checkWords[T word](t *testing.T, what string, n, off int, v []T, b []byte) {
	t.Helper()
	want := make([]T, len(v))
	decodeWords(want, b)
	for i := range v {
		if wordBits(v[i]) != wordBits(want[i]) {
			t.Fatalf("%s of %d words at offset %d: word %d is %#x, encoding says %#x",
				what, n, off, i, wordBits(v[i]), wordBits(want[i]))
		}
	}
}
