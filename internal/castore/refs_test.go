package castore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// resolve lists s's refs with what each points at.
func resolve(t *testing.T, s Store) (names []string, keys []Key) {
	t.Helper()
	names, err := s.Refs()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		key, ok, err := s.Ref(name)
		if err != nil || !ok {
			t.Fatalf("listed ref %s: ok=%v err=%v", name, ok, err)
		}
		keys = append(keys, key)
	}
	return names, keys
}

// Both backends: set, read back, overwrite, and enumerate in ascending
// name order — the same order from both, which is neither insertion
// order nor the order a directory walk visits components in ("a-b"
// sorts before "a/b", and a walk meets the directory "a" first).
func TestRefsRoundTripAndOrder(t *testing.T) {
	k1, k2 := KeyOf([]byte("one")), KeyOf([]byte("two"))
	want := []string{"MANIFEST", "a-b", "a/b", "a/c/d", "actions/" + k1.String(), "zz-top"}
	for name, s := range stores(t) {
		if _, ok, err := s.Ref("MANIFEST"); ok || err != nil {
			t.Fatalf("%s: absent ref = %v, %v; want false, nil", name, ok, err)
		}
		if names, _ := resolve(t, s); len(names) != 0 {
			t.Fatalf("%s: empty store lists refs %q", name, names)
		}
		for _, i := range []int{3, 0, 5, 2, 4, 1} {
			if err := s.SetRef(want[i], k1); err != nil {
				t.Fatalf("%s: set %s: %v", name, want[i], err)
			}
		}
		if err := s.SetRef("a/b", k2); err != nil {
			t.Fatal(err)
		}
		// Chunks are not refs, in either direction.
		if err := s.Put(k1, []byte("one")); err != nil {
			t.Fatal(err)
		}
		names, keys := resolve(t, s)
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("%s: refs = %q, want %q", name, names, want)
		}
		for i, key := range keys {
			if wantKey := map[bool]Key{true: k2, false: k1}[names[i] == "a/b"]; key != wantKey {
				t.Errorf("%s: ref %s = %s, want %s", name, names[i], key, wantKey)
			}
		}
		n := 0
		if err := s.Keys(func(Key, BlobInfo) error { n++; return nil }); err != nil || n != 1 {
			t.Fatalf("%s: %d chunks listed beside the refs, %v; want 1", name, n, err)
		}
	}
}

// A name is slash-separated components, none empty or dot-led, the
// first not two bytes long (the fan-out's directories). Anything else
// is refused by every entry point with *RefError — on disk it could
// climb out of the store, shadow a chunk directory or collide with a
// temporary.
func TestRefNamesChecked(t *testing.T) {
	key := KeyOf([]byte("k"))
	for name, s := range stores(t) {
		for _, bad := range []string{"", "/abs", "a//b", "a/", "..", "a/../b", ".hidden", "a/.tmp-1", "ab", "ab/cd"} {
			var re *RefError
			if err := s.SetRef(bad, key); !errors.As(err, &re) || re.Name != bad {
				t.Errorf("%s: SetRef(%q) = %v, want *RefError naming it", name, bad, err)
			}
			if _, ok, _ := s.Ref(bad); ok {
				t.Errorf("%s: Ref(%q) resolved", name, bad)
			}
		}
		if names, _ := resolve(t, s); len(names) != 0 {
			t.Errorf("%s: refused names left refs %q", name, names)
		}
		for _, good := range []string{"abc", "a", "x/ab", "A_b-c.d/e"} {
			if err := s.SetRef(good, key); err != nil {
				t.Errorf("%s: SetRef(%q): %v", name, good, err)
			}
		}
	}
}

// On disk a ref is the key in hex and a newline in a file named after
// it; an overwrite is a rename, so it leaves no temporary and concurrent
// writers leave one of their values whole. A value that is not a key —
// truncated, garbage, empty — is *RefError naming the ref from Ref and
// from Collect, which deletes nothing; the bare key DirIndex used to
// write reads back.
func TestDirRefsOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 8)
	var wg sync.WaitGroup
	for i := range keys {
		keys[i] = KeyOf([]byte{byte(i)})
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.SetRef("heads/main", k); err != nil {
					t.Error(err)
				}
			}
		}(keys[i])
	}
	wg.Wait()
	got, ok, err := s.Ref("heads/main")
	if err != nil || !ok {
		t.Fatalf("ref after concurrent writers: ok=%v err=%v", ok, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "heads", "main"))
	if err != nil || string(raw) != got.String()+"\n" {
		t.Fatalf("file = %q, %v; want %s and a newline", raw, err, got)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "heads")); err != nil || len(ents) != 1 {
		t.Fatalf("heads/ holds %d entries, %v; want only the ref", len(ents), err)
	}

	// Something for a wrongly destructive sweep to take.
	orphan := []byte("orphan")
	if err := s.Put(KeyOf(orphan), orphan); err != nil {
		t.Fatal(err)
	}
	node, err := PutNode(s, nil, nil, []byte("root"))
	if err != nil {
		t.Fatal(err)
	}
	plant := func(value string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "heads", "main"), []byte(value), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, rot := range rottenRefValues(node) {
		plant(rot)
		var re *RefError
		if _, ok, err := s.Ref("heads/main"); ok || !errors.As(err, &re) || re.Name != "heads/main" {
			t.Errorf("value %q: Ref = %v, %v; want *RefError naming the ref", rot, ok, err)
		}
		if _, err := Collect(s, nil); !errors.As(err, &re) || re.Name != "heads/main" {
			t.Errorf("value %q: Collect = %v; want *RefError naming the ref", rot, err)
		}
		if ok, _ := s.Has(KeyOf(orphan)); !ok {
			t.Fatalf("value %q: the aborted collection swept", rot)
		}
	}
	plant(node.String())
	if got, ok, err := s.Ref("heads/main"); err != nil || !ok || got != node {
		t.Fatalf("bare key = %v, %v, %v; want %s", got, ok, err, node)
	}
	if st, err := Collect(s, nil); err != nil || st.Removed != 1 || st.Live != 1 {
		t.Fatalf("collect over a sound ref: %+v, %v; want the orphan removed, the root kept", st, err)
	}
}

// rottenRefValues are ref values that are not a key, built around k:
// empty, truncated, garbage, one newline too many, a leading space, and
// a key's hex with one more byte.
func rottenRefValues(k Key) []string {
	return []string{"", k.String()[:31], "not a key\n", k.String() + "\n\n", " " + k.String(), k.String() + "0"}
}

// A stray large file under a ref's name is read no further than a key's
// hex and a newline and a byte: Ref and Collect fail typed having
// allocated a few KiB, not the file.
func TestDirRefReadIsBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	huge := append([]byte(KeyOf(nil).String()+"\n"), make([]byte, 1<<20)...)
	if err := os.WriteFile(filepath.Join(dir, "heads", "main"), huge, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]func() error{
		"Ref":     func() error { _, _, err := s.Ref("heads/main"); return err },
		"Collect": func() error { _, err := Collect(s, nil); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := op()
		runtime.ReadMemStats(&after)
		var re *RefError
		if !errors.As(err, &re) || re.Name != "heads/main" {
			t.Errorf("%s over a 1 MiB value = %v; want *RefError naming the ref", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s over a 1 MiB value allocated %d bytes", name, grew)
		}
	}
}

// FuzzRefValue writes arbitrary bytes as a ref's value. Ref returns the
// key if and only if the bytes are a key's hex with an optional newline
// (ParseKey's say, the newline trimmed), and otherwise *RefError naming
// the ref; it never panics and allocates a few KiB at most.
func FuzzRefValue(f *testing.F) {
	k := KeyOf([]byte("root"))
	for _, v := range append(rottenRefValues(k), k.String(), k.String()+"\n") {
		f.Add([]byte(v))
	}
	dir := f.TempDir()
	s, err := OpenDirStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "heads", "main")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, value []byte) {
		if err := os.WriteFile(path, value, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, ok, err := s.Ref("heads/main")
		runtime.ReadMemStats(&after)
		want, wantErr := ParseKey(strings.TrimSuffix(string(value), "\n"))
		var re *RefError
		switch {
		case wantErr == nil && (err != nil || !ok || got != want):
			t.Fatalf("value %q: Ref = %v, %v, %v; want %s", value, got, ok, err, want)
		case wantErr != nil && (ok || !errors.As(err, &re) || re.Name != "heads/main"):
			t.Fatalf("value %q: Ref = %v, %v; want *RefError naming the ref", value, ok, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<10 {
			t.Fatalf("value of %d bytes: Ref allocated %d", len(value), grew)
		}
	})
}

// What a collection keeps is a function of the store, not of who runs
// it or how the store came to be: two backends holding the same chunks
// and the same refs, set in different orders, sweep the same keys.
func TestCollectIsAFunctionOfTheStore(t *testing.T) {
	orders := map[string][]int{"mem": {0, 1}, "dir": {1, 0}}
	swept := make(map[string][]Key)
	for name, s := range stores(t) {
		var roots []Key
		for i := 0; i < 3; i++ {
			leaf := []byte(fmt.Sprintf("leaf %d", i))
			if err := s.Put(KeyOf(leaf), leaf); err != nil {
				t.Fatal(err)
			}
			root, err := PutNode(s, nil, []Key{KeyOf(leaf)}, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			roots = append(roots, root)
		}
		for _, i := range orders[name] {
			if err := s.SetRef(fmt.Sprintf("r/%d", i), roots[i]); err != nil {
				t.Fatal(err)
			}
		}
		before := keysOf(t, s)
		if _, err := Collect(s, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := keysOf(t, s)
		for _, k := range before {
			if !slices.Contains(after, k) {
				swept[name] = append(swept[name], k)
			}
		}
	}
	if len(swept["mem"]) != 2 || !reflect.DeepEqual(swept["mem"], swept["dir"]) {
		t.Fatalf("backends swept %v and %v; want the same two keys", swept["mem"], swept["dir"])
	}
}

func keysOf(t *testing.T, s Store) []Key {
	t.Helper()
	var out []Key
	if err := s.Keys(func(k Key, _ BlobInfo) error { out = append(out, k); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}
