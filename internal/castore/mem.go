package castore

import (
	"bytes"
	"sort"
	"sync"
)

// MemStore is the in-memory BlobStore backend: a map of codec-encoded
// chunks guarded by a mutex. It is the store of choice for tests, for
// benches, and for session eviction inside one process.
type MemStore struct {
	codec codec

	mu     sync.Mutex
	chunks map[Key][]byte // codec-encoded
	sizes  map[Key]int    // uncompressed sizes
	refs   map[string]Key // named pointers (refs.go)
	stats  StoreStats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{chunks: make(map[Key][]byte), sizes: make(map[Key]int), refs: make(map[string]Key)}
}

// Put stores b under key (idempotent). The chunk is encoded outside the
// store lock — compression is the expensive part of a Put and must not
// stall concurrent Gets — so the key is checked before encoding and
// again at insertion; a Put that loses that race is a deduplicated one.
func (s *MemStore) Put(key Key, b []byte) error {
	if err := checkSize(key, b); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Puts++
	s.stats.PutBytes += int64(len(b))
	_, dup := s.chunks[key]
	if dup {
		s.stats.DupPuts++
	}
	s.mu.Unlock()
	if dup {
		return nil
	}
	enc := s.codec.encodeBlob(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunks[key]; ok {
		s.stats.DupPuts++
		return nil
	}
	s.chunks[key] = enc
	s.sizes[key] = len(b)
	return nil
}

// Get returns the chunk's uncompressed bytes, verifying their hash. The
// result is the caller's to keep and modify.
func (s *MemStore) Get(key Key) ([]byte, error) {
	s.mu.Lock()
	enc, ok := s.chunks[key]
	s.mu.Unlock()
	if !ok {
		return nil, &ChunkMissingError{Key: key}
	}
	b, err := s.codec.decodeBlob(key, enc)
	if err != nil {
		return nil, err
	}
	if b, err = verifyGet(key, b); err != nil {
		return nil, err
	}
	if enc[0] == codecRaw {
		// The raw form decodes to a view of enc — the store's own
		// buffer. Handing that out would let a caller's write corrupt
		// the chunk for every later Get.
		b = bytes.Clone(b)
	}
	return b, nil
}

// Has reports whether the store holds key.
func (s *MemStore) Has(key Key) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.chunks[key]
	return ok, nil
}

// Stat describes one chunk.
func (s *MemStore) Stat(key Key) (BlobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc, ok := s.chunks[key]
	if !ok {
		return BlobInfo{}, &ChunkMissingError{Key: key}
	}
	return BlobInfo{Size: s.sizes[key], StoredSize: len(enc)}, nil
}

// Keys enumerates the held chunks in ascending key order. The order is
// part of the BlobStore contract: DirStore walks its sorted fan-out
// directories, so both backends enumerate identically and anything
// built from an enumeration (GC sweeps, store listings, future
// replication diffs) is a pure function of store content. The previous
// implementation ranged over the chunk map directly, handing fn a
// different order every process run.
func (s *MemStore) Keys(fn func(Key, BlobInfo) error) error {
	s.mu.Lock()
	keys := make([]Key, 0, len(s.chunks))
	snapshot := make(map[Key]BlobInfo, len(s.chunks))
	for k, enc := range s.chunks {
		keys = append(keys, k)
		snapshot[k] = BlobInfo{Size: s.sizes[k], StoredSize: len(enc)}
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		return bytes.Compare(keys[i][:], keys[j][:]) < 0
	})
	for _, k := range keys {
		if err := fn(k, snapshot[k]); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes a chunk (no-op when absent).
func (s *MemStore) Delete(key Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.chunks, key)
	delete(s.sizes, key)
	return nil
}

// Stats summarizes contents and traffic.
func (s *MemStore) Stats() (StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Chunks = len(s.chunks)
	for k, enc := range s.chunks {
		st.LogicalSize += int64(s.sizes[k])
		st.StoredSize += int64(len(enc))
	}
	return st, nil
}

// Corrupt overwrites the stored (encoded) form of a chunk in place,
// bypassing the codec — a test hook for corruption-injection tests.
// It reports whether the key was present.
func (s *MemStore) Corrupt(key Key, stored []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunks[key]; !ok {
		return false
	}
	s.chunks[key] = append([]byte(nil), stored...)
	return true
}
