package repro

// Chain-head file tests: the atomic WriteManifestHead/ReadManifestHead
// pair and its typed rejection of rotten heads — a truncated key, a key
// naming a manifest the store lost, bytes that are not a manifest.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/castore"
)

// headFixture checkpoints a small program into store and returns its
// manifest.
func headFixture(t *testing.T, store BlobStore) *Manifest {
	t.Helper()
	s := mustSession(t, WithMachine(MachineConfig{CPUsPerNode: 2}))
	if _, err := s.RunToCheckpoint(arrayProgram(2, 2, 256, -1, nil), 1); err != nil {
		t.Fatal(err)
	}
	m, err := s.SaveTo(store)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestHeadRoundTrip(t *testing.T) {
	store := NewMemStore()
	m := headFixture(t, store)
	path := filepath.Join(t.TempDir(), "MANIFEST")
	if err := WriteManifestHead(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestHead(store, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != m.Key() || got.Seq() != m.Seq() {
		t.Fatalf("round-tripped head = %s seq %d, want %s seq %d", got.Key(), got.Seq(), m.Key(), m.Seq())
	}
	// Overwrite with a chained head: the rename replaces atomically.
	m2, err := SaveImage(store, mustLoadImage(t, store, m), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifestHead(path, m2); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadManifestHead(store, path); err != nil || got.Key() != m2.Key() {
		t.Fatalf("rewritten head = %v, %v; want %s", got, err, m2.Key())
	}
	// No temp droppings left beside the head.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("head dir holds %d entries, want only MANIFEST", len(entries))
	}
}

func mustLoadImage(t *testing.T, store BlobStore, m *Manifest) *Image {
	t.Helper()
	img, err := LoadImage(store, m)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestManifestHeadRejectsRot(t *testing.T) {
	store := NewMemStore()
	m := headFixture(t, store)
	dir := t.TempDir()

	wantHeadErr := func(t *testing.T, err error) *HeadError {
		t.Helper()
		var he *HeadError
		if !errors.As(err, &he) {
			t.Fatalf("error %v (%T), want *HeadError", err, err)
		}
		return he
	}

	t.Run("truncated key", func(t *testing.T) {
		// The regression the atomic write prevents: a crashed writer that
		// used plain truncate-and-write leaves half a key.
		path := filepath.Join(dir, "TRUNC")
		if err := os.WriteFile(path, []byte(m.Key().String()[:17]), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifestHead(store, path)
		he := wantHeadErr(t, err)
		if he.Path != path {
			t.Errorf("HeadError.Path = %q, want %q", he.Path, path)
		}
	})
	t.Run("garbage key", func(t *testing.T) {
		path := filepath.Join(dir, "GARBAGE")
		if err := os.WriteFile(path, []byte("not hex at all\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifestHead(store, path)
		wantHeadErr(t, err)
	})
	t.Run("dangling key", func(t *testing.T) {
		// A syntactically fine key the store does not hold.
		path := filepath.Join(dir, "DANGLING")
		if err := os.WriteFile(path, []byte(strings.Repeat("ab", 32)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifestHead(store, path)
		he := wantHeadErr(t, err)
		if !errors.As(he, new(*ChunkMissingError)) {
			t.Errorf("dangling head does not unwrap to *ChunkMissingError: %v", err)
		}
	})
	t.Run("head names a non-manifest", func(t *testing.T) {
		// Valid chunk, wrong kind: CRC-framed validation must refuse it.
		blob := []byte("just bytes, no manifest framing")
		key := castore.KeyOf(blob)
		if err := store.Put(key, blob); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "NOTMAN")
		if err := os.WriteFile(path, []byte(key.String()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifestHead(store, path)
		wantHeadErr(t, err)
	})
	t.Run("missing file passes through", func(t *testing.T) {
		_, err := ReadManifestHead(store, filepath.Join(dir, "ABSENT"))
		if !os.IsNotExist(err) {
			t.Fatalf("missing head error = %v, want os.IsNotExist", err)
		}
		if errors.As(err, new(*HeadError)) {
			t.Fatal("missing head misreported as *HeadError")
		}
	})
}
