package detmake

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/castore"
)

func TestManifestRoundTrip(t *testing.T) {
	m := manifest{
		Action:  castore.KeyOf([]byte("action")),
		Outputs: []string{"a.out", "obj/deep/x.o"},
		Cost:    12345,
	}
	got, err := decodeManifest(encodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Action != m.Action || got.Cost != m.Cost || len(got.Outputs) != 2 ||
		got.Outputs[0] != m.Outputs[0] || got.Outputs[1] != m.Outputs[1] {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
}

func TestManifestDecodeRejectsDamage(t *testing.T) {
	enc := encodeManifest(manifest{Action: castore.KeyOf([]byte("a")), Outputs: []string{"x"}})
	for _, bad := range [][]byte{
		nil,
		enc[:len(enc)-1],
		append(append([]byte{}, enc...), 0),
		[]byte("XXXX not a manifest at all, far too short? no, long enough to pass the length gate......."),
	} {
		if _, err := decodeManifest(bad); err == nil {
			t.Fatalf("decodeManifest(%d bytes) accepted damage", len(bad))
		} else if !errors.As(err, new(*castore.NodeFormatError)) {
			t.Fatalf("damage error = %T, want *NodeFormatError", err)
		}
	}
}

// The action key must move with every semantic ingredient and nothing
// else.
func TestActionKeySensitivity(t *testing.T) {
	hash := map[string]castore.Key{
		"a": castore.KeyOf([]byte("1")),
		"b": castore.KeyOf([]byte("2")),
	}
	base := &Task{ID: "t", Action: "derive", Args: []string{"x"}, Inputs: []string{"a", "b"}, Outputs: []string{"o"}}
	k0 := actionKey(base, hash, 1<<20)

	if k := actionKey(base, hash, 1<<20); k != k0 {
		t.Fatal("key not stable")
	}
	// Input declaration order must not matter (sorted into the key).
	swapped := *base
	swapped.Inputs = []string{"b", "a"}
	if k := actionKey(&swapped, hash, 1<<20); k != k0 {
		t.Fatal("key depends on input declaration order")
	}
	// The task ID must not matter: same action + inputs = same result.
	renamed := *base
	renamed.ID = "renamed"
	if k := actionKey(&renamed, hash, 1<<20); k != k0 {
		t.Fatal("key depends on task ID")
	}
	for name, variant := range map[string]func() castore.Key{
		"action": func() castore.Key {
			v := *base
			v.Action = "other"
			return actionKey(&v, hash, 1<<20)
		},
		"args": func() castore.Key {
			v := *base
			v.Args = []string{"y"}
			return actionKey(&v, hash, 1<<20)
		},
		"input content": func() castore.Key {
			h2 := map[string]castore.Key{"a": castore.KeyOf([]byte("changed")), "b": hash["b"]}
			return actionKey(base, h2, 1<<20)
		},
		"outputs": func() castore.Key {
			v := *base
			v.Outputs = []string{"p"}
			return actionKey(&v, hash, 1<<20)
		},
		"image size": func() castore.Key {
			return actionKey(base, hash, 2<<20)
		},
	} {
		if variant() == k0 {
			t.Fatalf("key insensitive to %s", name)
		}
	}
}

// recorded returns the manifest key every action entry of s points at,
// in entry order.
func recorded(t testing.TB, s castore.BlobStore) []castore.Key {
	t.Helper()
	names, err := s.(castore.Store).Refs()
	if err != nil {
		t.Fatal(err)
	}
	var out []castore.Key
	for _, name := range names {
		if !strings.HasPrefix(name, "actions/") {
			t.Fatalf("a build store holds a ref %q that is not an action entry", name)
		}
		key, ok, err := s.Ref(name)
		if err != nil || !ok {
			t.Fatalf("ref %s: ok=%v err=%v", name, ok, err)
		}
		out = append(out, key)
	}
	return out
}

// The index is the store's refs under actions/, whichever way it is
// reached: through the adapter benchmark/ opens on DIR/actions, or as
// the refs of a DirStore on DIR. What the DirIndex this replaced wrote —
// the bare key, no newline — still reads back, and an entry that is not
// a key is a miss to the index and a typed error to the store.
func TestDirIndex(t *testing.T) {
	dir := t.TempDir()
	idx, err := OpenDirIndex(filepath.Join(dir, "actions"))
	if err != nil {
		t.Fatal(err)
	}
	action := castore.KeyOf([]byte("some action"))
	man := castore.KeyOf([]byte("its manifest"))
	if _, ok, err := idx.Lookup(action); ok || err != nil {
		t.Fatalf("empty lookup = %v, %v", ok, err)
	}
	if err := idx.Record(action, man); err != nil {
		t.Fatal(err)
	}
	got, ok, err := idx.Lookup(action)
	if err != nil || !ok || got != man {
		t.Fatalf("lookup = %v %v %v", got, ok, err)
	}
	// Reopen: entries persist, and they are the store's refs.
	idx2, err := OpenDirIndex(filepath.Join(dir, "actions"))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := idx2.Lookup(action); !ok || got != man {
		t.Fatal("entry lost on reopen")
	}
	store, err := castore.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if roots := recorded(t, store); len(roots) != 1 || roots[0] != man {
		t.Fatalf("the store's action refs point at %v, want %v", roots, man)
	}
	entry := filepath.Join(dir, "actions", action.String())
	if raw, err := os.ReadFile(entry); err != nil || string(raw) != man.String()+"\n" {
		t.Fatalf("entry file = %q, %v", raw, err)
	}
	// An entry as DirIndex wrote it.
	if err := os.WriteFile(entry, []byte(man.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := idx2.Lookup(action); err != nil || !ok || got != man {
		t.Fatalf("legacy entry lookup = %v %v %v", got, ok, err)
	}
	// A torn entry reads as a miss, not an error — and as a typed error,
	// never a key, to whoever asks the store.
	if err := os.WriteFile(entry, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := idx2.Lookup(action); ok || err != nil {
		t.Fatalf("torn lookup = %v, %v", ok, err)
	}
	if _, _, err := store.Ref("actions/" + action.String()); !errors.As(err, new(*castore.RefError)) {
		t.Fatalf("torn entry through the store: %v, want *castore.RefError", err)
	}
	// Recording over it heals it.
	if err := idx2.Record(action, man); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := idx2.Lookup(action); err != nil || !ok || got != man {
		t.Fatalf("lookup after re-record = %v %v %v", got, ok, err)
	}
}

// End-to-end over the on-disk store: a second build in a fresh process
// (modeled by a fresh handle over the same directory) is fully warm,
// and GC — handed no root at all — keeps every cached result alive,
// because the store's own action refs name them.
func TestDirStoreBuildCache(t *testing.T) {
	dir := t.TempDir()
	g, srcs := compileGraphStandalone(t)

	build := func() Result {
		store, err := castore.OpenDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Build(Config{Graph: g, Sources: srcs, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := build()
	warm := build()
	if warm.Stats.CacheHits != 3 || warm.Stats.Executed != 0 {
		t.Fatalf("warm-across-process stats = %+v", warm.Stats)
	}
	if warm.TreeDigest != cold.TreeDigest || warm.Checksum != cold.Checksum {
		t.Fatal("on-disk warm build differs in bits")
	}

	store, err := castore.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := castore.Collect(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Roots != 3 || st.Removed != 0 {
		t.Fatalf("collecting a build store: %+v, want 3 roots and nothing removed", st)
	}
	if again := build(); again.Stats.CacheHits != 3 {
		t.Fatalf("post-GC stats = %+v, want all hits", again.Stats)
	}
}

func compileGraphStandalone(t *testing.T) (*Graph, map[string][]byte) {
	t.Helper()
	g, err := NewGraph([]*Task{
		mkTask("cc-main", "upper", []string{"main.o"}, []string{"main.c"}),
		mkTask("cc-util", "upper", []string{"util.o"}, []string{"util.c"}),
		mkTask("link", "concat", []string{"a.out"}, []string{"main.o", "util.o"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, map[string][]byte{
		"main.c": []byte("int main;\n"),
		"util.c": []byte("int util;\n"),
	}
}

// FuzzDecodeManifest throws arbitrary payloads at decodeManifest, seeded
// with the manifests the golden build records and their truncations. A
// payload either decodes to a manifest that encodes back to the same
// bytes or fails as *castore.NodeFormatError; it never panics; and what
// decoding allocates is bounded by the payload's length, whatever output
// count it claims.
func FuzzDecodeManifest(f *testing.F) {
	cfg, tasks := goldenConfig(f)
	buildOrDie(f, cfg)
	roots := recorded(f, cfg.Store)
	if len(roots) != tasks {
		f.Fatalf("golden build recorded %d manifests for %d tasks", len(roots), tasks)
	}
	for _, k := range roots {
		node, err := castore.GetNode(cfg.Store, k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(node.Payload)
		f.Add(node.Payload[:len(node.Payload)/2])
	}
	// A count that claims every remaining byte is a path.
	f.Add(append(encodeManifest(manifest{})[:len(manifestMagic)+castore.KeySize+8], 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := decodeManifest(p)
		runtime.ReadMemStats(&after)
		if err != nil {
			if !errors.As(err, new(*castore.NodeFormatError)) {
				t.Fatalf("err = %T %v, want *castore.NodeFormatError", err, err)
			}
		} else if enc := encodeManifest(m); !bytes.Equal(enc, p) {
			t.Fatalf("decoded manifest encodes to %x, was %x", enc, p)
		}
		// Outputs grows by doubling, one 16-byte string header per 4
		// payload bytes at most, plus the strings themselves; the slack
		// is for the error and whatever else the process allocated
		// meanwhile (TotalAlloc is process-wide).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(p))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
		}
	})
}
