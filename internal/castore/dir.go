package castore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// DirStore is the on-disk BlobStore backend: one codec-encoded file per
// chunk under a two-level fan-out (aa/aabb...), the classic loose-object
// layout. Chunk files are immutable once written — Put goes through
// writeFileAtomic, so a crashed writer never leaves a half chunk under
// a valid name — and Get re-hashes everything
// it reads, so on-disk corruption surfaces as *ChunkHashError rather
// than as wrong state.
//
// Beside the fan-out live the store's refs (refs.go), one small file
// per name: the MANIFEST head the detshell ckpt commands maintain,
// detmake's actions/<action key> entries. They are the store's own, and
// what Collect keeps is what they reach.
type DirStore struct {
	dir   string
	codec codec

	mu    sync.Mutex
	stats StoreStats // traffic counters only; contents come from the FS
}

// OpenDirStore opens (creating if needed) an on-disk store rooted at dir.
func OpenDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: open %s: %w", dir, err)
	}
	return &DirStore{dir: dir}, nil
}

// path returns the chunk file path for key.
func (s *DirStore) path(key Key) string {
	hex := key.String()
	return filepath.Join(s.dir, hex[:2], hex)
}

// Put stores b under key (idempotent).
func (s *DirStore) Put(key Key, b []byte) error {
	if err := checkSize(key, b); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Puts++
	s.stats.PutBytes += int64(len(b))
	s.mu.Unlock()
	p := s.path(key)
	if _, err := os.Stat(p); err == nil {
		s.mu.Lock()
		s.stats.DupPuts++
		s.mu.Unlock()
		return nil
	}
	if err := writeFileAtomic(p, s.codec.encodeBlob(b)); err != nil {
		return fmt.Errorf("castore: put %s: %w", key, err)
	}
	return nil
}

// writeFileAtomic writes data to path, creating its directory if need
// be, so that a crashed writer leaves the old file or the new one, never
// a torn one under the real name: the bytes go to a uniquely named
// temporary file in the same directory (dot-prefixed, so Keys and Refs
// skip it), which is then renamed into place. Put and SetRef are its
// only users. Atomic, not durable: nothing is fsynced, neither the file
// nor its directory. ROADMAP's durability item adds that, and this is
// the one place it has to.
func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Get returns the chunk's uncompressed bytes, verifying their hash.
func (s *DirStore) Get(key Key) ([]byte, error) {
	enc, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &ChunkMissingError{Key: key}
		}
		return nil, fmt.Errorf("castore: get %s: %w", key, err)
	}
	b, err := s.codec.decodeBlob(key, enc)
	if err != nil {
		return nil, err
	}
	return verifyGet(key, b)
}

// Has reports whether the store holds key.
func (s *DirStore) Has(key Key) (bool, error) {
	if _, err := os.Stat(s.path(key)); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("castore: has %s: %w", key, err)
	}
	return true, nil
}

// Stat describes one chunk. The logical size requires decoding the
// stored form (the codec header carries it for the sized encodings).
func (s *DirStore) Stat(key Key) (BlobInfo, error) {
	enc, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return BlobInfo{}, &ChunkMissingError{Key: key}
		}
		return BlobInfo{}, fmt.Errorf("castore: stat %s: %w", key, err)
	}
	b, err := s.codec.decodeBlob(key, enc)
	if err != nil {
		return BlobInfo{}, err
	}
	return BlobInfo{Size: len(b), StoredSize: len(enc)}, nil
}

// Keys enumerates the held chunks by walking the fan-out directories.
func (s *DirStore) Keys(fn func(Key, BlobInfo) error) error {
	fans, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("castore: keys: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, fan.Name()))
		if err != nil {
			return fmt.Errorf("castore: keys: %w", err)
		}
		for _, f := range files {
			key, err := ParseKey(f.Name())
			if err != nil {
				continue // a temporary or a foreign file; not ours to report or delete
			}
			info, err := s.Stat(key)
			if err != nil {
				// Report corrupt chunks with their stored size so GC can
				// still see (and a sweep can still drop) them.
				if fi, serr := os.Stat(s.path(key)); serr == nil {
					info = BlobInfo{StoredSize: int(fi.Size())}
				}
			}
			if err := fn(key, info); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delete removes a chunk (no-op when absent).
func (s *DirStore) Delete(key Key) error {
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("castore: delete %s: %w", key, err)
	}
	return nil
}

// Stats summarizes contents and traffic.
func (s *DirStore) Stats() (StoreStats, error) {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	err := s.Keys(func(_ Key, info BlobInfo) error {
		st.Chunks++
		st.LogicalSize += int64(info.Size)
		st.StoredSize += int64(info.StoredSize)
		return nil
	})
	return st, err
}
