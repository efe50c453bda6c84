package repro

// Chain-head tests: a chain is kept by pointing one of the store's refs
// at its newest manifest. These are what the WriteManifestHead /
// ReadManifestHead pair's tests asserted, ported to the ref: the round
// trip and its atomic overwrite, and the typed rejection of rotten heads
// — a truncated key, a key naming a manifest the store lost, bytes that
// are not a manifest — each told apart from a head that is merely absent.

import (
	"errors"
	"io/fs"
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
	m, err := suspendAt(t, []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})},
		store, arrayProgram(2, 2, 256, -1, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// loadHead resolves store's ref name to the manifest it points at, the
// way detshell ckpt resume does.
func loadHead(store BlobStore, name string) (*Manifest, bool, error) {
	key, ok, err := store.Ref(name)
	if err != nil || !ok {
		return nil, ok, err
	}
	m, err := LoadManifest(store, key)
	return m, true, err
}

func TestManifestHeadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := headFixture(t, store)
	if err := store.SetRef("MANIFEST", m.Key()); err != nil {
		t.Fatal(err)
	}
	got, ok, err := loadHead(store, "MANIFEST")
	if err != nil || !ok {
		t.Fatalf("head: ok=%v err=%v", ok, err)
	}
	if got.Key() != m.Key() || got.Seq() != m.Seq() {
		t.Fatalf("round-tripped head = %s seq %d, want %s seq %d", got.Key(), got.Seq(), m.Key(), m.Seq())
	}
	// Overwrite with a chained head: the rename replaces atomically.
	m2, err := SaveImage(store, mustLoadImage(t, store, m), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetRef("MANIFEST", m2.Key()); err != nil {
		t.Fatal(err)
	}
	if got, _, err = loadHead(store, "MANIFEST"); err != nil || got.Key() != m2.Key() {
		t.Fatalf("rewritten head = %v, %v; want %s", got, err, m2.Key())
	}
	// The head is the one file DIR/MANIFEST holding the key and a newline
	// — the layout detshell has always written — and no temporary is left
	// anywhere in the store.
	if raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST")); err != nil || string(raw) != m2.Key().String()+"\n" {
		t.Fatalf("DIR/MANIFEST = %q, %v", raw, err)
	}
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".") {
			t.Errorf("temporary %s left behind", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if names, err := store.Refs(); err != nil || len(names) != 1 || names[0] != "MANIFEST" {
		t.Fatalf("refs = %q, %v; want only MANIFEST", names, err)
	}
}

func mustLoadImage(t testing.TB, store BlobStore, m *Manifest) *Image {
	t.Helper()
	img, err := LoadImage(store, m)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestManifestHeadRejectsRot(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := headFixture(t, store)

	// rot plants value as the stored form of ref name, behind the store's
	// back, and resolves it.
	rot := func(t *testing.T, name, value string) error {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(value), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, err := loadHead(store, name)
		if err == nil {
			t.Fatalf("rotten head %s resolved (ok=%v)", name, ok)
		}
		return err
	}
	wantRefErr := func(t *testing.T, err error, name string) {
		t.Helper()
		var re *RefError
		if !errors.As(err, &re) {
			t.Fatalf("error %v (%T), want *RefError", err, err)
		}
		if re.Name != name {
			t.Errorf("RefError.Name = %q, want %q", re.Name, name)
		}
	}

	t.Run("truncated key", func(t *testing.T) {
		// The regression the atomic write prevents: a crashed writer that
		// used plain truncate-and-write leaves half a key.
		wantRefErr(t, rot(t, "TRUNC", m.Key().String()[:17]), "TRUNC")
	})
	t.Run("garbage key", func(t *testing.T) {
		wantRefErr(t, rot(t, "GARBAGE", "not hex at all\n"), "GARBAGE")
	})
	t.Run("dangling key", func(t *testing.T) {
		// A syntactically fine key the store does not hold: the ref is
		// sound, the manifest is what is missing.
		err := rot(t, "DANGLING", strings.Repeat("ab", 32)+"\n")
		if !errors.As(err, new(*ChunkMissingError)) {
			t.Errorf("dangling head does not unwrap to *ChunkMissingError: %v", err)
		}
		if errors.As(err, new(*RefError)) {
			t.Errorf("dangling head misreported as a rotten ref: %v", err)
		}
	})
	t.Run("head names a non-manifest", func(t *testing.T) {
		// Valid chunk, wrong kind: CRC-framed validation must refuse it.
		blob := []byte("just bytes, no manifest framing")
		key := castore.KeyOf(blob)
		if err := store.Put(key, blob); err != nil {
			t.Fatal(err)
		}
		if err := rot(t, "NOTMAN", key.String()+"\n"); !errors.As(err, new(*ManifestError)) {
			t.Fatalf("error %v (%T), want *ManifestError", err, err)
		}
	})
	t.Run("missing file passes through", func(t *testing.T) {
		// An absent head is not an error at all, so it cannot be mistaken
		// for a rotten one.
		if m, ok, err := loadHead(store, "ABSENT"); m != nil || ok || err != nil {
			t.Fatalf("missing head = %v, %v, %v; want nil, false, nil", m, ok, err)
		}
	})
}
