package castore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// stores builds one of each backend for table-driven tests.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := OpenDirStore(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatalf("OpenDirStore: %v", err)
	}
	return map[string]Store{"mem": NewMemStore(), "dir": dir}
}

func TestPutGetRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello chunk"),
		make([]byte, 4096),                       // all zeros: zero-elided
		bytes.Repeat([]byte{7}, 4096),            // repetitive: flate wins
		append([]byte{1}, make([]byte, 4095)...), // sparse page shape
		{},                                       // empty blob
	}
	for name, s := range stores(t) {
		for i, p := range payloads {
			key := KeyOf(p)
			if err := s.Put(key, p); err != nil {
				t.Fatalf("%s: put %d: %v", name, i, err)
			}
			if err := s.Put(key, p); err != nil { // idempotent
				t.Fatalf("%s: re-put %d: %v", name, i, err)
			}
			got, err := s.Get(key)
			if err != nil {
				t.Fatalf("%s: get %d: %v", name, i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("%s: blob %d mismatch: %d bytes vs %d", name, i, len(got), len(p))
			}
			ok, err := s.Has(key)
			if err != nil || !ok {
				t.Fatalf("%s: has %d = %v, %v", name, i, ok, err)
			}
			info, err := s.Stat(key)
			if err != nil || info.Size != len(p) {
				t.Fatalf("%s: stat %d = %+v, %v", name, i, info, err)
			}
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatalf("%s: stats: %v", name, err)
		}
		if st.Chunks != len(payloads) || st.DupPuts != int64(len(payloads)) {
			t.Fatalf("%s: stats = %+v, want %d chunks and dups", name, st, len(payloads))
		}
	}
}

func TestCompressionShrinksSparsePages(t *testing.T) {
	page := make([]byte, 4096)
	page[8] = 0x5a // one dirty word, the dominant checkpoint page shape
	for name, s := range stores(t) {
		key := KeyOf(page)
		if err := s.Put(key, page); err != nil {
			t.Fatalf("%s: put: %v", name, err)
		}
		info, err := s.Stat(key)
		if err != nil {
			t.Fatalf("%s: stat: %v", name, err)
		}
		if info.StoredSize >= len(page)/8 {
			t.Fatalf("%s: sparse page stored as %d bytes, want < %d", name, info.StoredSize, len(page)/8)
		}
	}
	zero := make([]byte, 4096)
	s := NewMemStore()
	key := KeyOf(zero)
	if err := s.Put(key, zero); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Stat(key); info.StoredSize != 5 {
		t.Fatalf("zero page stored as %d bytes, want 5", info.StoredSize)
	}
}

func TestMissingAndCorruptChunks(t *testing.T) {
	for name, s := range stores(t) {
		missing := KeyOf([]byte("never stored"))
		if _, err := s.Get(missing); !errors.As(err, new(*ChunkMissingError)) {
			t.Fatalf("%s: get missing: %v, want ChunkMissingError", name, err)
		}
		if _, err := s.Stat(missing); !errors.As(err, new(*ChunkMissingError)) {
			t.Fatalf("%s: stat missing: %v, want ChunkMissingError", name, err)
		}
		if ok, err := s.Has(missing); ok || err != nil {
			t.Fatalf("%s: has missing = %v, %v", name, ok, err)
		}
	}

	// Corrupt the stored form on each backend; Get must fail typed.
	blob := []byte("some chunk contents that will get damaged")
	key := KeyOf(blob)

	mem := NewMemStore()
	if err := mem.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	mem.Corrupt(key, append([]byte{codecRaw}, []byte("evil twin bytes")...))
	if _, err := mem.Get(key); !errors.As(err, new(*ChunkHashError)) {
		t.Fatalf("mem: corrupt get: %v, want ChunkHashError", err)
	}

	dir, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir.path(key), append([]byte{codecRaw}, []byte("evil")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Get(key); !errors.As(err, new(*ChunkHashError)) {
		t.Fatalf("dir: corrupt get: %v, want ChunkHashError", err)
	}
	// A truncated/garbled codec frame is also corruption, not a crash.
	if err := os.WriteFile(dir.path(key), []byte{codecFlate, 1}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Get(key); !errors.As(err, new(*ChunkHashError)) {
		t.Fatalf("dir: truncated get: %v, want ChunkHashError", err)
	}
}

// TestGetResultIsCallersToMutate: a Get hands the caller bytes it may
// scribble on without damaging the store. The raw form used to decode to
// a slice of MemStore's own buffer, so flipping one byte of a fetched
// incompressible chunk made the next Get of that key fail with
// *ChunkHashError. All three codec forms, both backends.
func TestGetResultIsCallersToMutate(t *testing.T) {
	for name, s := range stores(t) {
		for form, b := range map[string][]byte{
			"raw":   noise(4096),
			"flate": sparsePage(),
			"zero":  make([]byte, 4096),
		} {
			key := KeyOf(b)
			if err := s.Put(key, b); err != nil {
				t.Fatalf("%s/%s: put: %v", name, form, err)
			}
			got, err := s.Get(key)
			if err != nil {
				t.Fatalf("%s/%s: get: %v", name, form, err)
			}
			for i := range got {
				got[i] ^= 0xff
			}
			again, err := s.Get(key)
			if err != nil {
				t.Fatalf("%s/%s: get after the caller wrote to the first result: %v", name, form, err)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("%s/%s: second get returned different bytes", name, form)
			}
		}
	}
}

func TestNodeFraming(t *testing.T) {
	leafA, leafB := KeyOf([]byte("a")), KeyOf([]byte("b"))
	child := KeyOf([]byte("child node"))
	payload := []byte("layer payload")
	b := BuildNode([]Key{child}, []Key{leafA, leafB}, payload)
	n, err := ParseNode(b)
	if err != nil {
		t.Fatalf("ParseNode: %v", err)
	}
	if len(n.NodeRefs) != 1 || n.NodeRefs[0] != child {
		t.Fatalf("node refs = %v", n.NodeRefs)
	}
	if len(n.LeafRefs) != 2 || n.LeafRefs[0] != leafA || n.LeafRefs[1] != leafB {
		t.Fatalf("leaf refs = %v", n.LeafRefs)
	}
	if !bytes.Equal(n.Payload, payload) {
		t.Fatalf("payload = %q", n.Payload)
	}

	// Flip a byte anywhere: the CRC must catch it.
	for _, off := range []int{0, 5, len(b) / 2, len(b) - 1} {
		bad := append([]byte(nil), b...)
		bad[off] ^= 0x40
		if _, err := ParseNode(bad); err == nil {
			t.Fatalf("ParseNode accepted corruption at byte %d", off)
		}
	}
	if _, err := ParseNode(b[:8]); err == nil {
		t.Fatal("ParseNode accepted truncated node")
	}
}

func TestCollectTracesChains(t *testing.T) {
	for name, s := range stores(t) {
		// parent: leaves {p1, p2}; child root references parent + {c1}.
		p1, p2, c1 := []byte("parent leaf 1"), []byte("parent leaf 2"), []byte("child leaf")
		orphan := []byte("orphaned chunk")
		for _, b := range [][]byte{p1, p2, c1, orphan} {
			if err := s.Put(KeyOf(b), b); err != nil {
				t.Fatalf("%s: put: %v", name, err)
			}
		}
		parentKey, err := PutNode(s, nil, []Key{KeyOf(p1), KeyOf(p2)}, []byte("parent"))
		if err != nil {
			t.Fatalf("%s: put parent: %v", name, err)
		}
		childKey, err := PutNode(s, []Key{parentKey}, []Key{KeyOf(c1)}, []byte("child"))
		if err != nil {
			t.Fatalf("%s: put child: %v", name, err)
		}

		// Collect with one ref, at the child, and no key handed in: the
		// store roots itself, the chain keeps the parent node and its
		// leaves, and only the orphan goes.
		if err := s.SetRef("chains/head", childKey); err != nil {
			t.Fatalf("%s: set ref: %v", name, err)
		}
		st, err := Collect(s, nil)
		if err != nil {
			t.Fatalf("%s: collect: %v", name, err)
		}
		if st.Roots != 1 || st.Removed != 1 {
			t.Fatalf("%s: %d roots, removed %d chunks, want 1 and 1 (stats %+v)", name, st.Roots, st.Removed, st)
		}
		for _, key := range []Key{parentKey, childKey, KeyOf(p1), KeyOf(p2), KeyOf(c1)} {
			if ok, _ := s.Has(key); !ok {
				t.Fatalf("%s: collect removed live chunk %s", name, key)
			}
		}
		if ok, _ := s.Has(KeyOf(orphan)); ok {
			t.Fatalf("%s: orphan survived", name)
		}

		// A key the caller holds live is a root beside the refs: a node
		// only it reaches survives, one nothing reaches does not.
		held, err := PutNode(s, nil, []Key{KeyOf(c1)}, []byte("held in memory"))
		if err != nil {
			t.Fatalf("%s: put held: %v", name, err)
		}
		if _, err := PutNode(s, nil, nil, []byte("dropped")); err != nil {
			t.Fatalf("%s: put dropped: %v", name, err)
		}
		if st, err = Collect(s, []Key{held}); err != nil || st.Roots != 2 || st.Removed != 1 {
			t.Fatalf("%s: collect with a held key: %+v, %v; want 2 roots, 1 removed", name, st, err)
		}
		if ok, _ := s.Has(held); !ok {
			t.Fatalf("%s: collect removed the held node", name)
		}

		// A missing root — handed in, or named by a ref — aborts without
		// deleting anything, and says which chunk is missing.
		missing := KeyOf([]byte("no such root"))
		var miss *ChunkMissingError
		if _, err := Collect(s, []Key{missing}); !errors.As(err, &miss) || miss.Key != missing {
			t.Fatalf("%s: collect with a missing held key: %v", name, err)
		}
		if err := s.SetRef("dangling", missing); err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(s, nil); !errors.As(err, &miss) || miss.Key != missing {
			t.Fatalf("%s: collect with a dangling ref: %v", name, err)
		}
		// Neither aborted collection held that node live: had either
		// swept, it would be gone.
		if ok, _ := s.Has(held); !ok {
			t.Fatalf("%s: failed collect deleted chunks", name)
		}
	}
}
