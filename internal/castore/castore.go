// Package castore is a content-addressed chunk store: blobs keyed by
// the SHA-256 of their (uncompressed) bytes. It is the storage layer the
// chunked checkpoint images stand on — deterministic execution makes a
// checkpoint a pure function of history, so checkpoints of one session
// over time, and of sibling sessions forked from a common parent, are
// natural delta chains: identical pages and tables hash to identical
// keys and are stored exactly once, however many images reference them.
//
// A store is chunks plus the names that keep them alive: refs (refs.go)
// map a name to a key, and garbage collection (gc.go) keeps exactly
// what the store's own refs reach.
//
// The package deliberately knows nothing about checkpoint formats. Two
// object shapes exist at this layer:
//
//   - leaf blobs: raw bytes (pages, level-2 table chunks, metadata
//     sections), stored under their content key;
//   - node objects (node.go): a framed reference list — node children
//     and leaf children by key — plus an opaque payload. Checkpoint
//     roots and manifests are nodes, which is what lets Collect (gc.go)
//     walk reachability without parsing any layer-specific format.
//
// Both backends (mem.go, dir.go) transparently compress blobs with the
// chunk codec (codec.go): all-zero blobs collapse to a few bytes and
// sparse pages flate down to a fraction of their raw size. Keys are
// always over the uncompressed bytes, so deduplication is independent of
// the codec, and Get re-hashes what it decoded — a corrupted or
// truncated stored blob surfaces as *ChunkHashError, never as silently
// wrong bytes.
package castore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// KeySize is the size of a chunk key in bytes (SHA-256).
const KeySize = 32

// Key is the content address of a chunk: the SHA-256 of its
// uncompressed bytes.
type Key [KeySize]byte

// KeyOf returns the content key of b.
func KeyOf(b []byte) Key { return sha256.Sum256(b) }

// String returns the key in hex, the form used for on-disk file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// IsZero reports whether k is the zero key (used as "no reference").
func (k Key) IsZero() bool { return k == Key{} }

// ParseKey parses a hex key string.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != KeySize {
		return k, fmt.Errorf("castore: bad key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// BlobInfo describes one stored chunk.
type BlobInfo struct {
	Size       int // uncompressed (logical) bytes
	StoredSize int // bytes the backend actually holds after the codec
}

// ChunkMissingError reports a Get or Stat of a key the store does not
// hold — a truncated chunk chain, typically from an incomplete copy or
// an over-eager garbage collection.
type ChunkMissingError struct {
	Key Key
}

func (e *ChunkMissingError) Error() string {
	return fmt.Sprintf("castore: chunk %s missing", e.Key)
}

// ChunkHashError reports a chunk whose bytes do not hash to the key it
// was stored or referenced under: on-disk corruption, or a mismatched
// key reference inside an image.
type ChunkHashError struct {
	Key Key // the key the chunk was expected under
	Got Key // the key its bytes actually hash to
}

func (e *ChunkHashError) Error() string {
	return fmt.Sprintf("castore: chunk %s corrupt (content hashes to %s)", e.Key, e.Got)
}

// BlobStore is the minimal content-addressed store interface the
// checkpoint layers write against.
//
// Put stores bytes under key. The caller vouches that key == KeyOf(b);
// implementations may verify and must be idempotent — re-putting an
// existing key is a no-op (and is how deduplication manifests: the
// second checkpoint of a mostly-unchanged session re-puts mostly
// existing keys).
//
// Get returns the uncompressed bytes of a chunk, verifying their hash:
// a missing key returns *ChunkMissingError, corrupt bytes return
// *ChunkHashError.
//
// SetRef and Ref are the store's named pointers (refs.go): SetRef points
// name at key, replacing any previous value whole; Ref returns the key
// name points at, ok == false when there is no such ref and *RefError
// when its stored value is not a key.
type BlobStore interface {
	Put(key Key, b []byte) error
	Get(key Key) ([]byte, error)
	Has(key Key) (bool, error)
	Stat(key Key) (BlobInfo, error)
	SetRef(name string, key Key) error
	Ref(name string) (key Key, ok bool, err error)
}

// StoreStats aggregates a backend's contents and traffic.
type StoreStats struct {
	Chunks      int   // distinct keys held
	LogicalSize int64 // sum of uncompressed chunk sizes
	StoredSize  int64 // sum of codec-compressed sizes actually held
	Puts        int64 // Put calls observed
	DupPuts     int64 // Puts of already-present keys (deduplicated)
	PutBytes    int64 // logical bytes offered across all Puts
}

// Store is the full backend interface: a BlobStore that can also
// enumerate, delete and summarize its contents — what garbage
// collection (Collect) and the bench harness need.
type Store interface {
	BlobStore
	// Keys calls fn for every chunk held, in ascending key order. The
	// order is part of the contract: anything built from an enumeration
	// (GC sweeps, listings, replication diffs) must be a pure function
	// of store content, never of backend internals or map iteration.
	// fn returning an error stops the walk and returns that error.
	Keys(fn func(Key, BlobInfo) error) error
	// Refs returns the name of every ref, in ascending order. What they
	// point at is Collect's root set.
	Refs() ([]string, error)
	// Delete removes a chunk. Deleting an absent key is a no-op.
	Delete(key Key) error
	// Stats summarizes the store's contents and Put traffic.
	Stats() (StoreStats, error)
}

// verifyGet re-hashes decoded bytes against the requested key; shared
// by the backends' Get paths.
func verifyGet(key Key, b []byte) ([]byte, error) {
	if got := KeyOf(b); got != key {
		return nil, &ChunkHashError{Key: key, Got: got}
	}
	return b, nil
}
