package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/imgenc"
)

// buildPair returns a space with some content plus its snapshot, with
// divergence written after the snapshot, so the pair shares some pages
// and not others.
func buildPair(t testing.TB) (*Space, *Space) {
	t.Helper()
	s := NewSpace()
	if err := s.SetPerm(0, 1<<22, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := s.WriteU64(Addr(i*PageSize), uint64(i)*7+1); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := s.Snapshot()
	// Diverge on three pages only; the rest stay pointer-shared.
	for _, pg := range []int{2, 3, 9} {
		if err := s.WriteU64(Addr(pg*PageSize)+8, 0xdead0000+uint64(pg)); err != nil {
			t.Fatal(err)
		}
	}
	return s, snap
}

func encodePair(cur, snap *Space) []byte {
	e := NewForestEncoder()
	e.Add(cur)
	e.Add(snap)
	return e.Encode()
}

func readBack(t *testing.T, s *Space, pages int) []uint64 {
	t.Helper()
	out := make([]uint64, 0, pages*2)
	for i := 0; i < pages; i++ {
		a, err := s.ReadU64(Addr(i * PageSize))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.ReadU64(Addr(i*PageSize) + 8)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a, b)
	}
	return out
}

func TestForestRoundTripContent(t *testing.T) {
	cur, snap := buildPair(t)
	img := encodePair(cur, snap)
	spaces, err := DecodeForest(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(spaces) != 2 {
		t.Fatalf("got %d spaces", len(spaces))
	}
	rc, rs := spaces[0], spaces[1]
	for name, pair := range map[string][2]*Space{"cur": {cur, rc}, "snap": {snap, rs}} {
		want := readBack(t, pair[0], 16)
		got := readBack(t, pair[1], 16)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s word %d: %#x != %#x", name, i, got[i], want[i])
			}
		}
		if want, got := mappedPages(pair[0]), mappedPages(pair[1]); want != got {
			t.Fatalf("%s mapped pages %d != %d", name, got, want)
		}
	}
}

// mappedPages counts the pages s maps, backed or lazy-zero.
func mappedPages(s *Space) int {
	n := 0
	for _, t := range s.root {
		if t == nil {
			continue
		}
		for j := range t.ptes {
			if t.ptes[j].mapped() {
				n++
			}
		}
	}
	return n
}

// The restored pair must preserve page identity sharing: unchanged pages
// are the same object in cur and snap, so a merge's Moved pages,
// CleanSince and an incremental Resnap see exactly the pre-serialization
// divergence.
func TestForestRoundTripPreservesSharing(t *testing.T) {
	cur, snap := buildPair(t)
	movedOf := func(cur, snap *Space) []Addr {
		dst, _ := snap.Snapshot()
		defer dst.Free()
		moved, _ := mergeMoved(t, dst, cur, snap, 0, 1<<22)
		return moved
	}
	want := movedOf(cur, snap)
	img := encodePair(cur, snap)
	spaces, err := DecodeForest(img)
	if err != nil {
		t.Fatal(err)
	}
	rc, rs := spaces[0], spaces[1]
	if got := movedOf(rc, rs); !slices.Equal(got, want) {
		t.Fatalf("moved pages %#x != %#x", got, want)
	}
	if rc.CleanSince(rs) != cur.CleanSince(snap) {
		t.Fatal("CleanSince proof changed across round trip")
	}
	// Resnap must stay incremental: only the diverged tables re-share.
	_, stWant := cur.Resnap(snap)
	_, stGot := rc.Resnap(rs)
	if stWant != stGot {
		t.Fatalf("Resnap stats %+v != %+v", stGot, stWant)
	}
	// Merge against the restored pair reports identical statistics.
	origDst, restDst := NewSpace(), NewSpace()
	for _, d := range []*Space{origDst, restDst} {
		if err := d.SetPerm(0, 1<<22, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	// Note: Resnap above refreshed the snapshots, so both merges see a
	// clean pair — the point is that they agree.
	mWant, err1 := Merge(origDst, cur, snap, 0, 1<<22)
	mGot, err2 := Merge(restDst, rc, rs, 0, 1<<22)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("merge errors diverge: %v vs %v", err1, err2)
	}
	if mWant != mGot {
		t.Fatalf("merge stats %+v != %+v", mGot, mWant)
	}
}

// A clean pair (snapshot just taken) must restore as clean, and a pair
// that diverged as not: the sharing CleanSince reads is what the image
// carries.
func TestForestRoundTripCleanState(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, 1<<22, PermRW); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Snapshot()
	if !s.CleanSince(snap) {
		t.Fatal("fresh pair not clean")
	}
	spaces, err := DecodeForest(encodePair(s, snap))
	if err != nil {
		t.Fatal(err)
	}
	if !spaces[0].CleanSince(spaces[1]) {
		t.Fatal("clean pair restored unclean")
	}

	if err := s.WriteU32(64, 1); err != nil {
		t.Fatal(err)
	}
	spaces, err = DecodeForest(encodePair(s, snap))
	if err != nil {
		t.Fatal(err)
	}
	if spaces[0].CleanSince(spaces[1]) {
		t.Fatal("diverged pair restored clean")
	}
}

// trackerImage hand-builds a version-1 flat image of two spaces sharing one table,
// which backs slot 3 with one page. With tracked set, the first space's
// record carries flags 1 and one dirty slot (dirtySlot, all bits set), and
// the image one snapshot link (0, linkTo) — the sections an earlier
// encoder filled in.
func trackerImage(tracked bool, dirtySlot uint16, linkTo uint32) []byte {
	le := binary.LittleEndian
	b := append([]byte(imageMagic), 1)
	b = le.AppendUint32(b, 1) // pages
	b = append(b, bytes.Repeat([]byte{7}, PageSize)...)
	b = le.AppendUint32(b, 1) // tables
	b = le.AppendUint16(b, 1) // one pte: slot 3, read-write, page 1
	b = le.AppendUint16(b, 3)
	b = append(b, byte(PermRW))
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, 2) // spaces
	for i := 0; i < 2; i++ {
		flags, dirty := byte(0), uint16(0)
		if tracked && i == 0 {
			flags, dirty = 1, 1
		}
		b = append(b, flags)
		b = le.AppendUint16(b, 1) // root slot 0: table 1
		b = le.AppendUint16(b, 0)
		b = le.AppendUint32(b, 1)
		b = le.AppendUint16(b, dirty)
		if dirty > 0 {
			b = le.AppendUint16(b, dirtySlot)
			b = append(b, bytes.Repeat([]byte{0xff}, tableEntries/8)...)
		}
	}
	if !tracked {
		return imgenc.Seal(le.AppendUint32(b, 0))
	}
	b = le.AppendUint32(b, 1) // links
	b = le.AppendUint32(b, 0)
	b = le.AppendUint32(b, linkTo)
	return imgenc.Seal(b)
}

// Images written when each space carried flags and dirty slots, and the
// image snapshot links, keep loading: the decoder checks those sections'
// bounds, then discards them, and the forest re-encodes with them empty —
// as version 1 did, and in the current grammar, which has no such
// sections, to the image the version-1 image without them decodes to.
func TestForestDecodeDiscardsTrackerSections(t *testing.T) {
	clean := trackerImage(false, 0, 0)
	spaces, err := DecodeForest(trackerImage(true, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(spaces) != 2 || !spaces[0].CleanSince(spaces[1]) {
		t.Fatalf("decoded %d spaces, sharing their root %v", len(spaces), len(spaces) == 2 && spaces[0].CleanSince(spaces[1]))
	}
	if v, err := spaces[1].ReadU32(3*PageSize + 8); err != nil || v != 0x07070707 {
		t.Fatalf("slot 3 reads %#x, %v", v, err)
	}
	if got := encodeV1(spaces...); !bytes.Equal(got, clean) {
		t.Fatalf("re-encoded to %d bytes, want the %d-byte image without the sections", len(got), len(clean))
	}
	got, err := DecodeForest(clean)
	if err != nil || !bytes.Equal(encodeV1(got...), clean) {
		t.Fatalf("the image without the sections is not canonical (err %v)", err)
	}
	if !bytes.Equal(reencode(got), reencode(spaces)) {
		t.Fatal("the image with the sections and the one without decode to different forests")
	}
	var fe *ImageFormatError
	for name, img := range map[string][]byte{
		"dirty slot out of range":    trackerImage(true, tableEntries, 1),
		"snapshot link out of range": trackerImage(true, 0, 2),
	} {
		if _, err := DecodeForest(img); !errors.As(err, &fe) {
			t.Errorf("%s: %v, want *ImageFormatError", name, err)
		}
	}
}

func TestForestEncodeCanonical(t *testing.T) {
	cur, snap := buildPair(t)
	a := encodePair(cur, snap)
	b := encodePair(cur, snap)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestForestDecodeRejectsBadImages(t *testing.T) {
	cur, snap := buildPair(t)
	img := encodePair(cur, snap)

	var ferr *ImageFormatError
	var verr *ImageVersionError

	// Truncation at various points.
	for _, cut := range []int{0, 3, 5, len(img) / 2, len(img) - 1} {
		if _, err := DecodeForest(img[:cut]); !errors.As(err, &ferr) {
			t.Fatalf("truncated at %d: got %v, want *ImageFormatError", cut, err)
		}
	}
	// Bit flip in the middle (page data): CRC catches it.
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x40
	if _, err := DecodeForest(bad); !errors.As(err, &ferr) {
		t.Fatalf("corrupt: got %v, want *ImageFormatError", err)
	}
	// Bad magic.
	bad = append([]byte(nil), img...)
	bad[0] = 'X'
	fixCRC(bad)
	if _, err := DecodeForest(bad); !errors.As(err, &ferr) {
		t.Fatalf("bad magic: got %v, want *ImageFormatError", err)
	}
	// Future version is rejected with the typed version error, so a
	// format bump fails closed on old decoders.
	bad = append([]byte(nil), img...)
	bad[4] = ImageVersion + 1
	fixCRC(bad)
	_, err := DecodeForest(bad)
	if !errors.As(err, &verr) {
		t.Fatalf("future version: got %v, want *ImageVersionError", err)
	}
	if verr.Version != ImageVersion+1 || verr.Max != ImageVersion {
		t.Fatalf("version error fields: %+v", verr)
	}
}

// fixCRC rewrites the image trailer after a deliberate mutation so the
// decoder sees the mutation itself, not the checksum mismatch.
func fixCRC(img []byte) {
	payload := img[:len(img)-4]
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(payload))
}
