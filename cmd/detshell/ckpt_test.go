package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// ckpt runs one save or resume against dir, feeding script to stdin,
// and returns the console output.
func ckpt(t *testing.T, dir, verb, script string) string {
	t.Helper()
	store, err := repro.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	switch verb {
	case "save":
		err = ckptSave(store, strings.NewReader(script), &out)
	case "resume":
		err = ckptResume(store, strings.NewReader(script), &out)
	default:
		t.Fatalf("bad verb %q", verb)
	}
	if err != nil {
		t.Fatalf("ckpt %s: %v", verb, err)
	}
	return out.String()
}

func TestCkptSaveResume(t *testing.T) {
	dir := t.TempDir()
	if out := ckpt(t, dir, "save", "write f hello world\nappend log one\n"); out != "" {
		t.Errorf("save output = %q, want none", out)
	}
	out := ckpt(t, dir, "resume", "append log two\ncat f\ncat log\n")
	if out != "hello world\none\ntwo\n" {
		t.Errorf("first resume output = %q", out)
	}
	// A resume with no new lines just replays nothing: all prior output
	// was flushed at its own barrier.
	if out := ckpt(t, dir, "resume", ""); out != "" {
		t.Errorf("empty resume output = %q, want none", out)
	}
	// The chain head advanced: a further resume sees both appends.
	if out := ckpt(t, dir, "resume", "cat log\n"); out != "one\ntwo\n" {
		t.Errorf("second resume output = %q", out)
	}
}

// TestCkptManifestChains: a save and two resumes build a three-link
// chain, and print exactly what one uninterrupted run of the
// concatenated script prints.
func TestCkptManifestChains(t *testing.T) {
	scripts := []string{"write f seed\ncat f\n", "append l x\ncat l\n", "append l y\ncat l\ncat f\n"}
	dir := t.TempDir()
	got := ckpt(t, dir, "save", scripts[0]) +
		ckpt(t, dir, "resume", scripts[1]) +
		ckpt(t, dir, "resume", scripts[2])
	if want := ckpt(t, t.TempDir(), "save", strings.Join(scripts, "")); got != want {
		t.Errorf("save + two resumes printed %q, one run of the whole script %q", got, want)
	}

	store, err := repro.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, ok, err := store.Ref(headRef)
	if err != nil || !ok {
		t.Fatalf("head ref: ok=%v err=%v", ok, err)
	}
	m, err := repro.LoadManifest(store, key)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 2 {
		t.Errorf("chain head seq = %d, want 2", m.Seq())
	}
	depth := 0
	for {
		parent, ok := m.Parent()
		if !ok {
			break
		}
		depth++
		if m, err = repro.LoadManifest(store, parent); err != nil {
			t.Fatalf("walking chain: %v", err)
		}
	}
	if depth != 2 {
		t.Errorf("chain depth = %d, want 2 (save + two resumes)", depth)
	}
}

func TestCkptResumeRejectsTruncatedHead(t *testing.T) {
	// Regression: a crashed save that used plain truncate-and-write could
	// leave half a key in MANIFEST; resume must refuse it with the typed
	// ref error, naming the ref, instead of a generic parse failure or a
	// wrong chain.
	dir := t.TempDir()
	ckpt(t, dir, "save", "write f seed\n")
	head := filepath.Join(dir, headRef)
	raw, err := os.ReadFile(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(head, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := repro.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = ckptResume(store, strings.NewReader("cat f\n"), &strings.Builder{})
	var re *repro.RefError
	if !errors.As(err, &re) || re.Name != headRef || !strings.Contains(err.Error(), headRef) {
		t.Fatalf("resume with truncated head: error %v (%T), want *repro.RefError naming %s", err, err, headRef)
	}

	// A head that parses but names a manifest the store does not hold is
	// a different failure, and says which: the missing chunk.
	if err := store.SetRef(headRef, repro.ChunkKey{1}); err != nil {
		t.Fatal(err)
	}
	err = ckptResume(store, strings.NewReader("cat f\n"), &strings.Builder{})
	var miss *repro.ChunkMissingError
	if !errors.As(err, &miss) || !strings.Contains(err.Error(), headRef) {
		t.Fatalf("resume with dangling head: error %v (%T), want *repro.ChunkMissingError naming %s", err, err, headRef)
	}

	// And a store nothing was saved into is neither.
	empty, err := repro.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = ckptResume(empty, strings.NewReader("cat f\n"), &strings.Builder{})
	if err == nil || errors.As(err, &re) || errors.As(err, &miss) {
		t.Fatalf("resume with no head: error %v (%T), want a plain one", err, err)
	}
}

func TestCkptSaveEmptyScriptFails(t *testing.T) {
	dir := t.TempDir()
	store, err := repro.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckptSave(store, strings.NewReader("# only a comment\n"), &strings.Builder{}); err == nil {
		t.Fatal("save of empty script succeeded, want error")
	}
}
