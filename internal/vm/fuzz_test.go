package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/castore"
	"repro/internal/imgenc"
)

// reencode serializes a decoded forest the way its image listed it:
// spaces in order.
func reencode(spaces []*Space) []byte {
	e := NewForestEncoder()
	for _, s := range spaces {
		e.Add(s)
	}
	return e.Encode()
}

// FuzzDecodeForest mutates forest images against DecodeForest's
// contract. Every input is tried twice — as given (almost always a CRC
// failure) and with its trailer recomputed, so the mutation itself
// reaches the decoder — and each must either fail with the layer's
// typed error or decode to a forest that re-encodes to a fixed point:
// the unmutated seeds re-encode to themselves, a mutant that still
// decodes may normalize once (an unreferenced page is dropped, say, or
// a dirty-slot or snapshot-link section emptied) and must then round-trip
// exactly. It must not panic, and what it allocates must follow from the
// bytes it consumed, not from a count field: every object the decoder
// builds (page, table, Space) is declared by at least two input bytes and
// is no larger than a table, so that sparse-to-dense ratio is the bound.
// The decode draws on a frame pool, whose live count must be the slot
// walk of what it decoded, and 0 once those spaces are freed or the
// decode has failed: every frame a decode takes is either in its forest
// or back in the pool.
func FuzzDecodeForest(f *testing.F) {
	cur, snap := buildPair(f)
	seed, seedV1 := encodePair(cur, snap), encodeV1(cur, snap)
	one := NewSpace()
	if err := one.SetPerm(0, 2*PageSize, PermRW); err != nil {
		f.Fatal(err)
	}
	if err := one.WriteU64(8, 42); err != nil {
		f.Fatal(err)
	}
	for _, img := range [][]byte{seed, seedV1} {
		f.Add(img)
		for _, cut := range []int{0, 3, 5, 9, len(img) / 2, len(img) - 5, len(img) - 1} {
			f.Add(img[:cut])
		}
	}
	f.Add(NewForestEncoder().Encode())
	f.Add(encodeV1())
	f.Add(reencode([]*Space{one}))
	f.Add(encodeV1(one))
	f.Add(onePTEImage(5, 0x04)) // a permission bit outside PermRW
	for _, tc := range hostileTables {
		f.Add(oneTableImage(tc.pages, tc.runs, tc.backed))
	}

	// maxObject is what the allocator hands out for a table, the
	// largest object the decoder builds: its size class, not its
	// unsafe.Sizeof (16 776 bytes). An image may hold tables with no
	// mapped slot — the encoder writes one for a table whose slots were
	// all set back to PermNone — so 2 bytes can cost a whole table.
	const maxObject = 18 << 10
	if unsafe.Sizeof(table{}) > maxObject {
		f.Fatalf("a table is %d bytes, above the %d-byte bound per object", unsafe.Sizeof(table{}), maxObject)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*len(seedV1) {
			t.Skip("longer than any image the seeds can grow into")
		}
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, imgenc.Seal(append([]byte(nil), data[:len(data)-4]...)))
		}
		for _, in := range inputs {
			var before, after runtime.MemStats
			pool := NewFrames()
			runtime.ReadMemStats(&before)
			spaces, err := pool.DecodeForest(in)
			runtime.ReadMemStats(&after)
			if grew, bound := after.TotalAlloc-before.TotalAlloc, (uint64(len(in))/2+8)*maxObject; grew > bound {
				t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(in), grew, bound)
			}
			if err != nil {
				var fe *ImageFormatError
				var ve *ImageVersionError
				if !errors.As(err, &fe) && !errors.As(err, &ve) {
					t.Fatalf("err = %v (%T), want *ImageFormatError or *ImageVersionError", err, err)
				}
				if n := pool.Live(); n != 0 {
					t.Fatalf("a failed decode left %d frames out of the pool", n)
				}
				continue
			}
			if live, walk := pool.Live(), FootprintWalk(spaces); live != walk {
				t.Fatalf("decoded forest: %d frames live, slot walk %d", live, walk)
			}
			first := reencode(spaces)
			for _, s := range spaces {
				s.Free()
			}
			if n := pool.Live(); n != 0 {
				t.Fatalf("freeing the decoded forest left %d frames out of the pool", n)
			}
			if bytes.Equal(in, seed) && !bytes.Equal(first, seed) {
				t.Fatal("the canonical seed does not re-encode to itself")
			}
			if bytes.Equal(in, seedV1) && !bytes.Equal(first, seed) {
				t.Fatal("the version-1 seed does not re-encode to the canonical seed")
			}
			again, err := DecodeForest(first)
			if err != nil {
				t.Fatalf("re-encoded image does not decode: %v", err)
			}
			second := reencode(again)
			for _, s := range again {
				s.Free()
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("re-encoding is not a fixed point (%d then %d bytes)", len(first), len(second))
			}
		}
	})
}

// hostileRoot frames a chunk-root payload claiming nPages pages and
// nTables tables while listing none of either: no ops, no tail.
func hostileRoot(nPages, nTables uint32) []byte {
	p := []byte{chunkRootVersion}
	p = binary.LittleEndian.AppendUint32(p, 0) // depth
	p = append(p, 0)                           // no parent
	p = binary.LittleEndian.AppendUint32(p, nPages)
	p = binary.LittleEndian.AppendUint32(p, 0) // page ops
	p = binary.LittleEndian.AppendUint32(p, nTables)
	p = binary.LittleEndian.AppendUint32(p, 0) // table ops
	p = binary.LittleEndian.AppendUint32(p, 0) // tail length
	return castore.BuildNode(nil, nil, p)
}

// hostileFlat seals a flat image whose page section is the given count
// of nothing, followed by whatever else the caller appends.
func hostileFlat(counts ...uint32) []byte {
	b := append([]byte(imageMagic), ImageVersion)
	for _, n := range counts {
		b = binary.LittleEndian.AppendUint32(b, n)
	}
	return imgenc.Seal(b)
}

// A count field is a claim, not a size. Each of these CRC-valid images
// claims 0xF0000000 pages or tables in a dozen bytes; at 5f6bb28 every
// one killed the process in makeslice (the count check recorded its
// error and the next line sized a slice by the count anyway — PR 17
// fixed that in DecodeForest only). The same bytes are committed under
// testdata/fuzz as seeds for FuzzDecodeForest and FuzzUnchunkForest.
func TestHostileCountsFailTyped(t *testing.T) {
	const claim = 0xF0000000
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"ChunkForest, page count", func() error {
			_, err := ChunkForest(castore.NewMemStore(), hostileFlat(claim), castore.Key{})
			return err
		}},
		{"ChunkForest, table count", func() error {
			_, err := ChunkForest(castore.NewMemStore(), hostileFlat(0, claim), castore.Key{})
			return err
		}},
		{"DecodeForest, table count", func() error {
			_, err := DecodeForest(hostileFlat(0, claim))
			return err
		}},
		{"UnchunkForest, page count", unchunkOf(t, hostileRoot(claim, 0))},
		{"UnchunkForest, table count", unchunkOf(t, hostileRoot(0, claim))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.run()
		runtime.ReadMemStats(&after)
		var fe *ImageFormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v (%T), want *ImageFormatError", tc.name, err, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes on the way to rejecting a dozen", tc.name, grew)
		}
	}
}

// unchunkOf stores node under its key in an otherwise empty store and
// returns the call that unchunks it.
func unchunkOf(t *testing.T, node []byte) func() error {
	store := castore.NewMemStore()
	key := castore.KeyOf(node)
	if err := store.Put(key, node); err != nil {
		t.Fatal(err)
	}
	return func() error {
		_, err := UnchunkForest(store, key)
		return err
	}
}

// onePTEImage seals a version-1 flat image of one space whose one table
// lists one demand-zero slot, l2, with the permission byte perm.
func onePTEImage(l2 uint16, perm byte) []byte {
	b := append([]byte(imageMagic), 1)
	b = binary.LittleEndian.AppendUint32(b, 0) // pages
	b = binary.LittleEndian.AppendUint32(b, 1) // tables
	b = binary.LittleEndian.AppendUint16(b, 1) // one pte
	b = binary.LittleEndian.AppendUint16(b, l2)
	b = append(b, perm)
	b = binary.LittleEndian.AppendUint32(b, 0) // demand-zero
	b = binary.LittleEndian.AppendUint32(b, 1) // spaces
	b = append(b, 0)                           // flags
	b = binary.LittleEndian.AppendUint16(b, 1) // one root slot
	b = binary.LittleEndian.AppendUint16(b, 0) // l1
	b = binary.LittleEndian.AppendUint32(b, 1) // table 1
	b = binary.LittleEndian.AppendUint16(b, 0) // dirty slots
	b = binary.LittleEndian.AppendUint32(b, 0) // links
	return imgenc.Seal(b)
}

// oneTableImage seals a current flat image of npages zero pages and one
// space whose one table, at level-1 slot 0, has the given runs (first
// slot, length, permission) and backed runs (first slot, length, first
// page id), written as given.
func oneTableImage(npages int, runs, backed [][3]int) []byte {
	le := binary.LittleEndian
	b := append([]byte(imageMagic), ImageVersion)
	b = le.AppendUint32(b, uint32(npages))
	b = append(b, make([]byte, npages*PageSize)...)
	b = le.AppendUint32(b, 1) // tables
	b = append(b, runsSection(runs)...)
	b = append(b, backedSection(backed)...)
	b = le.AppendUint32(b, 1) // spaces
	b = le.AppendUint16(b, 1) // one root slot
	b = le.AppendUint16(b, 0) // l1
	b = le.AppendUint32(b, 1) // table 1
	return imgenc.Seal(b)
}

func runsSection(runs [][3]int) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(runs)))
	for _, r := range runs {
		b = binary.LittleEndian.AppendUint16(b, uint16(r[0]))
		b = binary.LittleEndian.AppendUint16(b, uint16(r[1]))
		b = append(b, byte(r[2]))
	}
	return b
}

func backedSection(backed [][3]int) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(backed)))
	for _, r := range backed {
		b = binary.LittleEndian.AppendUint16(b, uint16(r[0]))
		b = binary.LittleEndian.AppendUint16(b, uint16(r[1]))
		b = binary.LittleEndian.AppendUint32(b, uint32(r[2]))
	}
	return b
}

// hostileTables are tables the current grammar refuses, one per rule
// table.check enforces, written as oneTableImage takes them.
var hostileTables = []struct {
	name   string
	pages  int
	runs   [][3]int
	backed [][3]int
}{
	{"runs that overlap", 0, [][3]int{{0, 8, 3}, {4, 8, 3}}, nil},
	{"runs out of order", 0, [][3]int{{10, 2, 3}, {0, 2, 3}}, nil},
	{"a run of length 0", 0, [][3]int{{3, 0, 3}}, nil},
	{"a run past slot 1023", 0, [][3]int{{1020, 8, 3}}, nil},
	{"a run with permission 0x04", 0, [][3]int{{0, 1, 4}}, nil},
	{"a backed slot no run maps", 1, [][3]int{{0, 4, 3}}, [][3]int{{9, 1, 1}}},
	{"a backed run across a gap in the runs", 3, [][3]int{{0, 2, 3}, {3, 2, 3}}, [][3]int{{1, 3, 1}}},
	{"a backed slot repeated", 1, [][3]int{{0, 4, 3}}, [][3]int{{1, 1, 1}, {1, 1, 1}}},
	{"backed runs out of order", 1, [][3]int{{0, 4, 3}}, [][3]int{{2, 1, 1}, {1, 1, 1}}},
	{"a backed run of length 0", 1, [][3]int{{0, 4, 3}}, [][3]int{{1, 0, 1}}},
	{"a backed slot past the table", 1, [][3]int{{0, tableEntries, 3}}, [][3]int{{tableEntries, 1, 1}}},
	{"a backed run past slot 1023", 2, [][3]int{{0, tableEntries, 3}}, [][3]int{{tableEntries - 1, 2, 1}}},
	{"a page id past the pages", 1, [][3]int{{0, 4, 3}}, [][3]int{{1, 1, 2}}},
	{"page ids running past the pages", 1, [][3]int{{0, 4, 3}}, [][3]int{{1, 2, 1}}},
	{"page id 0", 1, [][3]int{{0, 4, 3}}, [][3]int{{1, 1, 0}}},
}

// ChunkForest and DecodeForest read the page and table sections through
// one walker, so what one rejects there the other does: a pte slot past
// the table's end used to be chunked, stored, and fail only on the
// restore that needed it, and a permission byte with bits outside
// PermRW — a slot no access could use, and no permission bitmap would
// hold — used to be restored.
func TestChunkForestRejectsWhatDecodeForestRejects(t *testing.T) {
	if _, err := DecodeForest(onePTEImage(5, byte(PermRW))); err != nil {
		t.Fatalf("the well-formed image does not decode: %v", err)
	}
	if _, err := DecodeForest(oneTableImage(2, [][3]int{{0, 4, 3}, {4, 2, 1}, {6, 1, 0}}, [][3]int{{1, 1, 1}, {5, 2, 1}})); err != nil {
		t.Fatalf("the well-formed current image does not decode: %v", err)
	}
	cases := []struct {
		name string
		flat []byte
	}{
		{"slot 1024 of 1024", onePTEImage(tableEntries, byte(PermRW))},
		{"permission 0x04", onePTEImage(5, 0x04)},
		{"permission 0x83", onePTEImage(5, 0x83)},
	}
	for _, tc := range hostileTables {
		cases = append(cases, struct {
			name string
			flat []byte
		}{tc.name, oneTableImage(tc.pages, tc.runs, tc.backed)})
	}
	for _, tc := range cases {
		var fe *ImageFormatError
		if _, err := DecodeForest(tc.flat); !errors.As(err, &fe) {
			t.Fatalf("%s: DecodeForest: %v, want *ImageFormatError", tc.name, err)
		}
		store := castore.NewMemStore()
		if _, err := ChunkForest(store, tc.flat, castore.Key{}); !errors.As(err, &fe) {
			t.Fatalf("%s: ChunkForest: %v, want *ImageFormatError", tc.name, err)
		}
		if st, _ := store.Stats(); st.Puts != 0 {
			t.Fatalf("%s: ChunkForest stored %d chunks of an image it rejected", tc.name, st.Puts)
		}
	}
}

// meteredStore serves one extra node over a read-only base and counts
// the bytes Get hands out: what an unchunk consumed.
type meteredStore struct {
	castore.BlobStore
	key     castore.Key
	node    []byte
	fetched uint64
}

func (s *meteredStore) Get(key castore.Key) ([]byte, error) {
	b, err := s.node, error(nil)
	if key != s.key {
		b, err = s.BlobStore.Get(key)
	}
	s.fetched += uint64(len(b))
	return b, err
}

// FuzzUnchunkForest mutates the root node of a chunked forest — a full
// root and a delta root over it, both seeded in the current version and
// in version 1, and a root per table the grammar refuses — and stores the mutant
// under its own key beside the untouched chunks, as given and with its
// CRC trailer recomputed. UnchunkForest must fail with a typed error of
// vm's or castore's, or produce a flat image that chunks and unchunks
// back to itself and that DecodeForest decodes or rejects typed. It must
// not panic, and what it allocates must follow from what it consumed:
// the chunks it fetched, plus the keys and table records its ops list —
// an op is at least 9 bytes and lists no more than its source (the
// root's leaf refs, its parent's lists) holds — plus the image those
// lists spell out, a page per key and a table's layout and backed slots
// per record (a repeated key is fetched once, so the image can outgrow
// the fetches) — never from a count.
func FuzzUnchunkForest(f *testing.F) {
	cur, snap := buildPair(f)
	base := castore.NewMemStore()
	full, err := ChunkForest(base, encodePair(cur, snap), castore.Key{})
	if err != nil {
		f.Fatal(err)
	}
	fullV1 := chunkV1(f, base, encodeV1(cur, snap), castore.Key{})
	if err := cur.WriteU64(5*PageSize, 0xfeed); err != nil {
		f.Fatal(err)
	}
	delta, err := ChunkForest(base, encodePair(cur, snap), full)
	if err != nil {
		f.Fatal(err)
	}
	deltaV1 := chunkV1(f, base, encodeV1(cur, snap), fullV1)
	seeds := []castore.Key{full, delta, fullV1, deltaV1}
	for _, tc := range hostileTables {
		seeds = append(seeds, tableRoot(f, base, tc.pages, tc.runs, tc.backed))
	}
	longest, listed := 0, 0
	for i, key := range seeds {
		node, err := base.Get(key)
		if err != nil {
			f.Fatal(err)
		}
		if i >= 4 { // a root whose table the grammar refuses
			f.Add(node)
			continue
		}
		shape, err := resolveShape(base, key, 0)
		if err != nil {
			f.Fatal(err)
		}
		if (key == delta || key == deltaV1) != (shape.depth == 1) {
			f.Fatalf("seed %d is at depth %d", i, shape.depth)
		}
		longest = max(longest, len(node))
		listed = max(listed, len(shape.pageKeys)+len(shape.tables))
		f.Add(node)
		for _, cut := range []int{0, 5, 13, len(node) / 2, len(node) - 5, len(node) - 1} {
			f.Add(node[:cut])
		}
	}

	perOp := uint64(listed) * uint64(unsafe.Sizeof(tableRec{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*longest {
			t.Skip("longer than any root the seeds can grow into")
		}
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, imgenc.Seal(append([]byte(nil), data[:len(data)-4]...)))
		}
		for _, in := range inputs {
			store := &meteredStore{BlobStore: base, key: castore.KeyOf(in), node: in}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			flat, err := UnchunkForest(store, store.key)
			runtime.ReadMemStats(&after)
			// Fetching decodes (a few copies of each chunk): 16x what was
			// fetched covers it. The image is allocated once, at the size
			// the root's lists give it.
			fetched, image := store.fetched, uint64(0)
			if shape, serr := resolveShape(store, store.key, 0); serr == nil {
				image = uint64(len(shape.pageKeys)*PageSize + len(shape.tail))
				for _, rec := range shape.tables {
					// A version-1 record's slot is a pte in the image
					// reassembled, then a run and a backed slot in the
					// one it is rewritten as.
					image += uint64(len(rec.backed) + len(rec.pids)*(flatPTESize+runSize+backedSize))
					if layout, err := base.Get(rec.chunk); err == nil {
						image += uint64(len(layout))
					}
				}
			}
			if grew, bound := after.TotalAlloc-before.TotalAlloc, (uint64(len(in))/9+8)*perOp+16*fetched+2*image+1<<20; grew > bound {
				t.Fatalf("unchunking a %d-byte root that fetched %d bytes into a %d-byte image allocated %d (bound %d)", len(in), fetched, image, grew, bound)
			}
			var fe *ImageFormatError
			var ve *ImageVersionError
			if err != nil {
				var ne *castore.NodeFormatError
				var me *castore.ChunkMissingError
				var he *castore.ChunkHashError
				if !errors.As(err, &fe) && !errors.As(err, &ve) && !errors.As(err, &ne) && !errors.As(err, &me) && !errors.As(err, &he) {
					t.Fatalf("err = %v (%T), want a typed error of vm's or castore's", err, err)
				}
				continue
			}
			again := castore.NewMemStore()
			root, err := ChunkForest(again, flat, castore.Key{})
			if err != nil {
				t.Fatalf("the unchunked image does not chunk: %v", err)
			}
			if back, err := UnchunkForest(again, root); err != nil || !bytes.Equal(back, flat) {
				t.Fatalf("the unchunked image does not round-trip (err %v)", err)
			}
			spaces, err := DecodeForest(flat)
			if err != nil && !errors.As(err, &fe) {
				t.Fatalf("DecodeForest of the unchunked image: %v (%T)", err, err)
			}
			for _, s := range spaces {
				s.Free()
			}
		}
	})
}

// tableRoot stores npages zero pages, a layout of the given runs and a
// current full root over them whose one table record has the given
// backed runs, mapped by one space at level-1 slot 0, and returns the
// root's key.
func tableRoot(t testing.TB, store castore.BlobStore, npages int, runs, backed [][3]int) castore.Key {
	le := binary.LittleEndian
	zero := make([]byte, PageSize)
	layout := runsSection(runs)
	refs := []castore.Key{castore.KeyOf(layout)}
	for _, b := range [][]byte{layout, zero} {
		if err := store.Put(castore.KeyOf(b), b); err != nil {
			t.Fatal(err)
		}
	}
	p := []byte{chunkRootVersion, 0, 0, 0, 0, 0} // version, depth, no parent
	p = le.AppendUint32(p, uint32(npages))
	if npages > 0 {
		p = le.AppendUint32(p, 1) // one literal page op over refs[1:]
		p = append(p, 0)
		p = le.AppendUint32(p, 1)
		p = le.AppendUint32(p, uint32(npages))
		for range npages {
			refs = append(refs, castore.KeyOf(zero))
		}
	} else {
		p = le.AppendUint32(p, 0)
	}
	p = le.AppendUint32(p, 1) // one table
	p = le.AppendUint32(p, 1) // in one literal op
	p = append(p, 0)
	p = le.AppendUint32(p, 1)
	p = le.AppendUint32(p, 0) // layout: leaf ref 0
	p = append(p, backedSection(backed)...)
	spaces := le.AppendUint32(nil, 1)
	spaces = le.AppendUint16(spaces, 1)
	spaces = le.AppendUint16(spaces, 0)
	spaces = le.AppendUint32(spaces, 1)
	p = le.AppendUint32(p, uint32(len(spaces)))
	p = append(p, spaces...)
	key, err := castore.PutNode(store, nil, refs, p)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// A root carries a table's backed slots and its layout chunk the runs, so
// UnchunkForest checks the pair as openForest checks a flat table: each
// table the grammar refuses fails typed, and the well-formed one
// reassembles into an image that decodes.
func TestUnchunkRejectsHostileTables(t *testing.T) {
	store := castore.NewMemStore()
	good := tableRoot(t, store, 2, [][3]int{{0, 4, 3}, {4, 2, 1}, {6, 1, 0}}, [][3]int{{1, 1, 1}, {5, 2, 1}})
	flat, err := UnchunkForest(store, good)
	if err != nil {
		t.Fatalf("the well-formed root: %v", err)
	}
	if _, err := DecodeForest(flat); err != nil {
		t.Fatalf("the well-formed root's image: %v", err)
	}
	for _, tc := range hostileTables {
		var fe *ImageFormatError
		if _, err := UnchunkForest(store, tableRoot(t, store, tc.pages, tc.runs, tc.backed)); !errors.As(err, &fe) {
			t.Errorf("%s: %v, want *ImageFormatError", tc.name, err)
		}
	}
}
