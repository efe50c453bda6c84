package castore_test

// The store layout's golden: testdata/store_v1 is a DirStore directory
// written by the commit before refs existed (17ce465), by
//
//	echo 'write f hello' | detshell ckpt save    store_v1
//	echo 'write g world' | detshell ckpt resume  store_v1
//	detmake -f store_v1.dmk -store store_v1 -j 2
//
// so it holds a two-manifest checkpoint chain under the head file
// MANIFEST ("<hex>\n", as WriteManifestHead wrote it), a two-task build
// under actions/<hex> ("<hex>", as DirIndex wrote it), and the chunks of
// both in one fan-out. Everything that reads a store must keep reading
// this one. The test works on a copy: a collection deletes files.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/castore"
	"repro/internal/detmake"
)

// goldenBuild is store_v1.dmk as a Config over store.
func goldenBuild(t *testing.T, store castore.BlobStore) detmake.Config {
	t.Helper()
	g, err := detmake.NewGraph([]*detmake.Task{
		{ID: "cat", Action: "concat", Outputs: []string{"out/ab.txt"}, Inputs: []string{"src/a.txt", "src/b.txt"}},
		{ID: "up", Action: "upper", Outputs: []string{"out/AB.txt"}, Inputs: []string{"out/ab.txt"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return detmake.Config{Graph: g, Store: store, Jobs: 2,
		Sources: map[string][]byte{"src/a.txt": []byte("alpha\n"), "src/b.txt": []byte("beta\n")}}
}

func TestStoreV1Golden(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store_v1"))); err != nil {
		t.Fatal(err)
	}
	store, err := castore.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	chunks := func() map[castore.Key]bool {
		t.Helper()
		held := make(map[castore.Key]bool)
		if err := store.Keys(func(k castore.Key, _ castore.BlobInfo) error { held[k] = true; return nil }); err != nil {
			t.Fatal(err)
		}
		return held
	}
	all := chunks()

	// The refs are the head and the two action entries, by those names.
	const (
		head = "9ae1ad81ca3707c4755613fb0d06c0d3f265795744b07ba3f07b83a2861948a0"
		act1 = "actions/828483d2a12f11b0b81b8802289a51406c6e50f0b3c315c4d9d7ce5e981f17f2"
		act2 = "actions/e9e23b526a29b3fc02a62943b6be983bdc9012ae4d710f08fac770cdcdcabc46"
	)
	names, err := store.Refs()
	if err != nil || !reflect.DeepEqual(names, []string{"MANIFEST", act1, act2}) {
		t.Fatalf("refs = %q, %v", names, err)
	}

	// The head resolves to the chain's second manifest, whose image loads.
	key, ok, err := store.Ref("MANIFEST")
	if err != nil || !ok || key.String() != head {
		t.Fatalf("MANIFEST = %s, %v, %v; want %s", key, ok, err, head)
	}
	loadHead := func() {
		t.Helper()
		m, err := repro.LoadManifest(store, key)
		if err != nil {
			t.Fatal(err)
		}
		if _, hasParent := m.Parent(); m.Seq() != 1 || !hasParent {
			t.Fatalf("head manifest seq %d, parent %v; want the second link of a chain", m.Seq(), hasParent)
		}
		img, err := repro.LoadImage(store, m)
		if err != nil {
			t.Fatal(err)
		}
		if img.Phase != 2 {
			t.Fatalf("head image rests at phase %d, want 2", img.Phase)
		}
	}
	loadHead()

	// A build over it is warm, with the bits the writing commit printed.
	warm := func() {
		t.Helper()
		res, err := detmake.Build(goldenBuild(t, store))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheHits != 2 || res.Stats.Executed != 0 {
			t.Fatalf("build over the golden store: %+v, want 2 hits", res.Stats)
		}
		const digest, checksum = "a4ca2ed035219ee19758b8ffc1ff62a8e61fb15c3d5f42bf80b5a84edd760718", 0x4639c75ab2df433c
		if res.TreeDigest.String() != digest || res.Checksum != checksum {
			t.Fatalf("tree %s checksum %016x, want %s %016x", res.TreeDigest, res.Checksum, digest, uint64(checksum))
		}
	}
	warm()

	// Every chunk is reachable from a ref: a collection handed no key
	// removes nothing.
	st, err := castore.Collect(store, nil)
	if err != nil || st.Roots != 3 || st.Removed != 0 || st.Live != len(all) {
		t.Fatalf("collect: %+v, %v; want 3 roots, %d live, none removed", st, err, len(all))
	}
	loadHead()

	// Without its head the chain is garbage, and exactly the chain: what
	// remains is what the action entries reach, and the build stays warm.
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	built := make(map[castore.Key]bool)
	for _, name := range []string{act1, act2} {
		man, _, err := store.Ref(name)
		if err != nil {
			t.Fatal(err)
		}
		node, err := castore.GetNode(store, man)
		if err != nil {
			t.Fatal(err)
		}
		built[man] = true
		for _, leaf := range node.LeafRefs {
			built[leaf] = true
		}
	}
	st, err = castore.Collect(store, nil)
	if err != nil || st.Roots != 2 || st.Removed != len(all)-len(built) {
		t.Fatalf("collect without the head: %+v, %v; want 2 roots, %d removed", st, err, len(all)-len(built))
	}
	if left := chunks(); !reflect.DeepEqual(left, built) {
		t.Fatalf("%d chunks left, want the build's %d", len(left), len(built))
	}
	if _, err := repro.LoadManifest(store, key); err == nil {
		t.Fatal("the chain's head survived the collection that dropped its ref")
	}
	warm()
}
