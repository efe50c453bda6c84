package imgenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// layerErr and verErr stand in for a layer's typed errors: Open and the
// Reader must hand every failure to the caller's constructors, with the
// offset it happened at.
type layerErr struct {
	off int
	msg string
}

func (e *layerErr) Error() string { return fmt.Sprintf("layer: byte %d: %s", e.off, e.msg) }

type verErr struct{ v byte }

func (e *verErr) Error() string { return fmt.Sprintf("layer: version %d", e.v) }

func wrap(off int, msg string) error { return &layerErr{off, msg} }
func badVersion(v byte) error        { return &verErr{v} }

func reader(b []byte) *Reader { return &Reader{B: b, Wrap: wrap} }

func sealed(magic string, version byte, payload ...byte) []byte {
	return Seal(append(append([]byte(magic), version), payload...))
}

func TestOpenFraming(t *testing.T) {
	good := sealed("TEST", 3, 0xaa, 0xbb)
	flipped := bytes.Clone(good)
	flipped[5] ^= 1
	for _, tc := range []struct {
		name    string
		data    []byte
		wantOff int    // for *layerErr
		wantMsg string // "" = a *verErr is expected instead
		wantVer byte
	}{
		{"empty", nil, 0, "short image", 0},
		{"one byte short of an empty payload", good[:8], 0, "short image", 0},
		{"payload bit flipped", flipped, len(good) - 4, "checksum mismatch (corrupt image)", 0},
		{"truncated", good[:len(good)-1], len(good) - 5, "checksum mismatch (corrupt image)", 0},
		{"another format's magic", sealed("ABCD", 3, 0xaa), 0, "bad magic", 0},
		{"newer version", sealed("TEST", 4, 0xaa), 0, "", 4},
		{"older version", sealed("TEST", 0), 0, "", 0},
	} {
		r, err := Open(tc.data, "TEST", 3, wrap, badVersion)
		if r != nil || err == nil {
			t.Errorf("%s: Open = %v, %v; want a failure", tc.name, r, err)
			continue
		}
		var le *layerErr
		var ve *verErr
		switch {
		case tc.wantMsg != "":
			if !errors.As(err, &le) || le.off != tc.wantOff || le.msg != tc.wantMsg {
				t.Errorf("%s: err = %v, want layerErr{%d, %q}", tc.name, err, tc.wantOff, tc.wantMsg)
			}
		case !errors.As(err, &ve) || ve.v != tc.wantVer:
			t.Errorf("%s: err = %v, want verErr{%d}", tc.name, err, tc.wantVer)
		}
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {7}, bytes.Repeat([]byte{1, 2, 3}, 1000)} {
		img := sealed("TEST", 3, payload...)
		if want := len("TEST") + 1 + len(payload) + 4; len(img) != want {
			t.Fatalf("sealed %d payload bytes into %d, want %d", len(payload), len(img), want)
		}
		r, err := Open(img, "TEST", 3, wrap, badVersion)
		if err != nil {
			t.Fatal(err)
		}
		if r.Off != 5 || r.Remaining() != len(payload) {
			t.Fatalf("cursor at %d with %d left, want 5 and %d", r.Off, r.Remaining(), len(payload))
		}
		if got := r.Take(len(payload)); !bytes.Equal(got, payload) {
			t.Fatalf("payload differs after the round trip")
		}
		if err := r.Done(); err != nil {
			t.Fatalf("Done on a fully read image: %v", err)
		}
	}
}

func TestAccessorsReadLittleEndian(t *testing.T) {
	var b []byte
	b = append(b, 0x11)
	b = binary.LittleEndian.AppendUint16(b, 0x2233)
	b = binary.LittleEndian.AppendUint32(b, 0x44556677)
	b = binary.LittleEndian.AppendUint64(b, 0x8899aabbccddeeff)
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0)) // -1
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = append(b, "hi"...)
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = append(b, 1, 2, 3)
	r := reader(b)
	if v := r.U8(); v != 0x11 {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0x2233 {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0x44556677 {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x8899aabbccddeeff {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.I64(); v != -1 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.Str(); v != "hi" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

// The first failure sticks — later failures do not replace it — and from
// then on every accessor reads zero without moving the cursor.
func TestFirstErrorSticksAndEverythingReadsZero(t *testing.T) {
	r := reader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 {
		t.Fatalf("U32 of 3 bytes = %d, want 0", v)
	}
	var first *layerErr
	if !errors.As(r.Err, &first) || first.off != 0 || first.msg != "truncated (4 bytes wanted, 3 left)" {
		t.Fatalf("Err = %v", r.Err)
	}
	r.Failf("a later failure")
	if r.Take(-1) != nil || r.Err != error(first) {
		t.Fatalf("a later failure replaced the first: %v", r.Err)
	}
	// The three bytes are still there, but a failed reader yields none.
	if r.U8() != 0 || r.U16() != 0 || r.U32() != 0 || r.U64() != 0 || r.I64() != 0 ||
		r.Str() != "" || r.Bytes() != nil || r.Take(1) != nil ||
		r.Count(1, "x") != 0 || r.Count16(1, "x") != 0 {
		t.Fatal("an accessor read a non-zero value after a failure")
	}
	if r.Off != 0 {
		t.Fatalf("cursor moved to %d after a failure", r.Off)
	}
	if err := r.Done(); err != error(first) {
		t.Fatalf("Done = %v, want the first error", err)
	}
}

func TestTakeRejectsNegativeAndOverlong(t *testing.T) {
	for _, n := range []int{-1, 4} {
		r := reader([]byte{1, 2, 3})
		if r.Take(n) != nil || r.Err == nil {
			t.Errorf("Take(%d) of 3 bytes succeeded", n)
		}
	}
	r := reader([]byte{1, 2, 3})
	if got := r.Take(0); got == nil || len(got) != 0 || r.Err != nil {
		t.Errorf("Take(0) = %v, %v; want empty, nil", got, r.Err)
	}
}

func TestStrAndBytesLengthGuard(t *testing.T) {
	// A length one past what is left, and one claiming 4 GiB.
	for _, n := range []uint32{3, 0xffffffff} {
		b := append(binary.LittleEndian.AppendUint32(nil, n), 'a', 'b')
		r := reader(b)
		if s := r.Str(); s != "" || r.Err == nil {
			t.Errorf("Str with length %d over 2 bytes = %q, %v", n, s, r.Err)
		}
		var le *layerErr
		if !errors.As(r.Err, &le) || le.off != 4 {
			t.Errorf("length %d: err = %v, want a layerErr at byte 4", n, r.Err)
		}
	}
	r := reader(append(binary.LittleEndian.AppendUint32(nil, 2), 'a', 'b'))
	if s := r.Str(); s != "ab" || r.Err != nil {
		t.Errorf("Str = %q, %v", s, r.Err)
	}
}

func TestCount(t *testing.T) {
	const pageSize = 4096
	u32 := func(n uint32, rest int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, rest)...)
	}
	u16 := func(n uint16, rest int) []byte {
		return append(binary.LittleEndian.AppendUint16(nil, n), make([]byte, rest)...)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		wide bool // Count (u32) or Count16
		unit int
		want int // 0 with an error expected when fail is set
		fail bool
	}{
		{"unit 1, exactly what is left", u32(5, 5), true, 1, 5, false},
		{"unit 1, one more than is left", u32(6, 5), true, 1, 0, true},
		{"unit 1, zero of nothing", u32(0, 0), true, 1, 0, false},
		{"pages, exactly two", u32(2, 2*pageSize), true, pageSize, 2, false},
		{"pages, a byte short of two", u32(2, 2*pageSize-1), true, pageSize, 0, true},
		{"pages, PR 17's crasher", u32(0xf0000000, 0), true, pageSize, 0, true},
		{"everything a u32 can claim", u32(0xffffffff, 64), true, 1, 0, true},
		{"u16, fits", u16(3, 21), false, 7, 3, false},
		{"u16, does not", u16(3, 20), false, 7, 0, true},
		{"u16, the most it can claim", u16(0xffff, 8), false, 8, 0, true},
		{"count itself truncated", []byte{1, 0}, true, 1, 0, true},
	} {
		r := reader(tc.b)
		var got int
		if tc.wide {
			got = r.Count(tc.unit, "thing")
		} else {
			got = r.Count16(tc.unit, "thing")
		}
		if got != tc.want || (r.Err != nil) != tc.fail {
			t.Errorf("%s: count = %d, err = %v; want %d, fail %v", tc.name, got, r.Err, tc.want, tc.fail)
		}
	}
}

func TestDone(t *testing.T) {
	r := reader([]byte{1, 2, 3})
	r.U8()
	err := r.Done()
	var le *layerErr
	if !errors.As(err, &le) || le.off != 1 || le.msg != "2 trailing bytes" {
		t.Fatalf("Done with 2 bytes unread = %v", err)
	}
	if r.Err != err {
		t.Fatal("Done's failure is not the reader's sticky error")
	}
	if err := reader(nil).Done(); err != nil {
		t.Fatalf("Done on an empty payload = %v", err)
	}
}

// OpenRange accepts every version from oldest to newest, reports which
// one the image carries, and hands any other to badVersion.
func TestOpenRangeVersions(t *testing.T) {
	for v := byte(0); v <= 4; v++ {
		r, got, err := OpenRange(sealed("TEST", v, 0xaa), "TEST", 1, 3, wrap, badVersion)
		var ve *verErr
		switch {
		case v >= 1 && v <= 3:
			if err != nil || got != v || r.Off != 5 || r.Remaining() != 1 {
				t.Errorf("version %d: reader at %v, version %d, err %v", v, r, got, err)
			}
		case r != nil || !errors.As(err, &ve) || ve.v != v:
			t.Errorf("version %d: got %v, %v; want verErr{%d}", v, r, err, v)
		}
	}
}
