package vm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/castore"
)

// chunkRoundTrip asserts the core transcoding property: unchunking a
// chunked image reproduces the flat bytes exactly.
func chunkRoundTrip(t *testing.T, store castore.BlobStore, flat []byte, parent castore.Key) castore.Key {
	t.Helper()
	root, err := ChunkForest(store, flat, parent)
	if err != nil {
		t.Fatalf("ChunkForest: %v", err)
	}
	back, err := UnchunkForest(store, root)
	if err != nil {
		t.Fatalf("UnchunkForest: %v", err)
	}
	if !bytes.Equal(back, flat) {
		t.Fatalf("unchunked image differs from flat: %d bytes vs %d", len(back), len(flat))
	}
	return root
}

func TestChunkRoundTripFull(t *testing.T) {
	cur, snap := buildPair(t)
	flat := encodePair(cur, snap)
	store := castore.NewMemStore()
	root := chunkRoundTrip(t, store, flat, castore.Key{})

	// Chunking is a transcoding: the reassembled bytes must decode with
	// the ordinary flat decoder into working spaces.
	back, err := UnchunkForest(store, root)
	if err != nil {
		t.Fatal(err)
	}
	spaces, err := DecodeForest(back)
	if err != nil {
		t.Fatalf("DecodeForest of unchunked image: %v", err)
	}
	if len(spaces) != 2 {
		t.Fatalf("decoded %d spaces, want 2", len(spaces))
	}
	if got := readBack(t, spaces[0], 16); got[4] != readBack(t, cur, 16)[4] {
		t.Fatal("restored content differs")
	}

	// A full root is self-contained: no parent node ref.
	node, err := castore.GetNode(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(node.NodeRefs) != 0 {
		t.Fatalf("full root has %d node refs, want 0", len(node.NodeRefs))
	}
}

func TestChunkRoundTripEmptyForest(t *testing.T) {
	e := NewForestEncoder()
	e.Add(NewSpace())
	flat := e.Encode()
	chunkRoundTrip(t, castore.NewMemStore(), flat, castore.Key{})
}

func TestChunkDeltaStoresOnlyDirtyPages(t *testing.T) {
	s := NewSpace()
	const pages = 64
	if err := s.SetPerm(0, pages*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := s.WriteU64(Addr(i*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	enc := func() []byte {
		e := NewForestEncoder()
		e.Add(s)
		return e.Encode()
	}
	store := castore.NewMemStore()
	root1 := chunkRoundTrip(t, store, enc(), castore.Key{})
	before, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// Touch two pages, chunk again against the first root.
	for _, pg := range []int{11, 40} {
		if err := s.WriteU64(Addr(pg*PageSize)+16, 0xc0ffee+uint64(pg)); err != nil {
			t.Fatal(err)
		}
	}
	root2 := chunkRoundTrip(t, store, enc(), root1)
	after, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// O(k): the second image adds the 2 dirty pages plus one root node.
	if grew := after.Chunks - before.Chunks; grew != 3 {
		t.Fatalf("second checkpoint added %d chunks, want 3 (2 pages + root)", grew)
	}
	node, err := castore.GetNode(store, root2)
	if err != nil {
		t.Fatal(err)
	}
	if len(node.NodeRefs) != 1 || node.NodeRefs[0] != root1 {
		t.Fatalf("delta root node refs = %v, want parent %s", node.NodeRefs, root1)
	}
	if len(node.LeafRefs) != 2 {
		t.Fatalf("delta root carries %d literal refs, want 2", len(node.LeafRefs))
	}
}

func TestChunkDeltaChainFallsBackToFullRoot(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, 8*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	store := castore.NewMemStore()
	var parent castore.Key
	sawFull := 0
	for i := 0; i < maxChainDepth+4; i++ {
		if err := s.WriteU64(Addr((i%8)*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		e := NewForestEncoder()
		e.Add(s)
		root := chunkRoundTrip(t, store, e.Encode(), parent)
		node, err := castore.GetNode(store, root)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(node.NodeRefs) == 0 {
			sawFull++
		}
		parent = root
	}
	if sawFull == 0 {
		t.Fatalf("chain of %d checkpoints never fell back to a full root", maxChainDepth+4)
	}
}

func TestUnchunkRejectsDamage(t *testing.T) {
	cur, snap := buildPair(t)
	flat := encodePair(cur, snap)

	// Missing root key.
	if _, err := UnchunkForest(castore.NewMemStore(), castore.KeyOf([]byte("nope"))); !errors.As(err, new(*castore.ChunkMissingError)) {
		t.Fatalf("missing root: %v, want ChunkMissingError", err)
	}

	// Deleting any leaf chunk must surface as ChunkMissingError.
	store := castore.NewMemStore()
	root, err := ChunkForest(store, flat, castore.Key{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := castore.GetNode(store, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []castore.Key{node.LeafRefs[0], node.LeafRefs[len(node.LeafRefs)-1]} {
		saved, err := store.Get(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Delete(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := UnchunkForest(store, root); !errors.As(err, new(*castore.ChunkMissingError)) {
			t.Fatalf("deleted chunk: %v, want ChunkMissingError", err)
		}
		if err := store.Put(victim, saved); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupting a chunk's stored bytes must surface as ChunkHashError.
	store.Corrupt(node.LeafRefs[0], []byte{'R', 1, 2, 3})
	if _, err := UnchunkForest(store, root); !errors.As(err, new(*castore.ChunkHashError)) {
		t.Fatalf("corrupt chunk: %v, want ChunkHashError", err)
	}
}

func TestUnchunkRejectsMismatchedChunkShapes(t *testing.T) {
	// A structurally valid root whose refs point at chunks of the wrong
	// shape (a table chunk where a page belongs) must fail typed, not
	// produce a garbage image.
	store := castore.NewMemStore()
	small := []byte{1, 0, 5, 0, 3} // valid table chunk: n=1, l2=5, perm=3
	smallKey := castore.KeyOf(small)
	if err := store.Put(smallKey, small); err != nil {
		t.Fatal(err)
	}
	var payload []byte
	payload = append(payload, chunkRootVersion)
	payload = append(payload, 0, 0, 0, 0) // depth
	payload = append(payload, 0)          // no parent
	payload = append(payload, 1, 0, 0, 0) // nPages = 1
	payload = append(payload, 1, 0, 0, 0) // one page op
	payload = append(payload, 0)          // literal
	payload = append(payload, 0, 0, 0, 0) // leaf start 0
	payload = append(payload, 1, 0, 0, 0) // count 1
	payload = append(payload, 0, 0, 0, 0) // nTables = 0
	payload = append(payload, 0, 0, 0, 0) // no table ops
	payload = append(payload, 0, 0, 0, 0) // tail len 0
	root, err := castore.PutNode(store, nil, []castore.Key{smallKey}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnchunkForest(store, root); !errors.As(err, new(*ImageFormatError)) {
		t.Fatalf("wrong-size page chunk: %v, want ImageFormatError", err)
	}

	// A truncated root payload is a format error too.
	root2, err := castore.PutNode(store, nil, nil, payload[:7])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnchunkForest(store, root2); !errors.As(err, new(*ImageFormatError)) {
		t.Fatalf("truncated root payload: %v, want ImageFormatError", err)
	}
}

func TestChunkSiblingImagesShareChunks(t *testing.T) {
	// Two forests diverged slightly from a common ancestor share most
	// chunks in one store, even with independent (parentless) roots.
	base := NewSpace()
	const pages = 64
	if err := base.SetPerm(0, pages*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := base.WriteU64(Addr(i*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	left, _ := base.Snapshot()
	right, _ := base.Snapshot()
	if err := left.WriteU64(3*PageSize, 0x1111); err != nil {
		t.Fatal(err)
	}
	if err := right.WriteU64(9*PageSize, 0x2222); err != nil {
		t.Fatal(err)
	}

	store := castore.NewMemStore()
	encOne := func(s *Space) []byte {
		e := NewForestEncoder()
		e.Add(s)
		return e.Encode()
	}
	chunkRoundTrip(t, store, encOne(left), castore.Key{})
	mid, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	chunkRoundTrip(t, store, encOne(right), castore.Key{})
	end, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	added := end.Chunks - mid.Chunks
	// Right's image shares all but its one diverged page with left's:
	// one new page chunk plus one new root.
	if added > 3 {
		t.Fatalf("sibling image added %d chunks to a %d-chunk store", added, mid.Chunks)
	}
}

// callCountingStore counts the Put and Get calls each key receives.
type callCountingStore struct {
	castore.BlobStore
	puts, gets map[castore.Key]int
}

func (s *callCountingStore) Put(key castore.Key, b []byte) error {
	s.puts[key]++
	return s.BlobStore.Put(key, b)
}

func (s *callCountingStore) Get(key castore.Key) ([]byte, error) {
	s.gets[key]++
	return s.BlobStore.Get(key)
}

// TestChunkOneStoreCallPerDistinctChunk: five tables with one layout and
// three pages with two contents are five table instances and three page
// instances in the image, but one layout chunk — Put once by the save,
// fetched once by the load — and no key is fetched twice.
func TestChunkOneStoreCallPerDistinctChunk(t *testing.T) {
	s := NewSpace()
	const tables = 5
	if err := s.SetPerm(0, tables*TableSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	for i, v := range []uint64{7, 7, 9} { // pages 0 and 1 hold the same bytes
		if err := s.WriteU64(Addr(i)*Addr(TableSpan), v); err != nil {
			t.Fatal(err)
		}
	}
	e := NewForestEncoder()
	e.Add(s)
	flat := e.Encode()

	store := &callCountingStore{BlobStore: castore.NewMemStore(), puts: map[castore.Key]int{}, gets: map[castore.Key]int{}}
	root := chunkRoundTrip(t, store, flat, castore.Key{})
	shape, err := resolveShape(store.BlobStore, root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(shape.tables) != tables || len(shape.pageKeys) != 3 || shape.pageKeys[0] != shape.pageKeys[1] {
		t.Fatalf("image lists %d tables and pages %v", len(shape.tables), shape.pageKeys)
	}
	layouts := map[castore.Key]bool{}
	for _, rec := range shape.tables {
		layouts[rec.chunk] = true
		if n := store.puts[rec.chunk]; n != 1 {
			t.Errorf("layout chunk %s Put %d times by one save", rec.chunk, n)
		}
	}
	// Tables 0-2 back a page and tables 3-4 none, but the layout chunk
	// holds no page reference: one layout.
	if len(layouts) != 1 {
		t.Errorf("%d distinct layouts among tables mapped alike", len(layouts))
	}
	for key, n := range store.gets {
		if n != 1 {
			t.Errorf("chunk %s fetched %d times by one load", key, n)
		}
	}
}
