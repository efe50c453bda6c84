package fs

import (
	"errors"
	"testing"

	"repro/internal/kernel"
)

// Directory semantics: hierarchical names over the parent-ino field.

func TestMkdirAndNestedFiles(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.Mkdir("src"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := f.Mkdir("src/lib"); err != nil {
			t.Fatalf("nested mkdir: %v", err)
		}
		if err := f.WriteFile("src/lib/a.go", []byte("package a")); err != nil {
			t.Fatalf("write nested: %v", err)
		}
		got, err := f.ReadFile("src/lib/a.go")
		if err != nil || string(got) != "package a" {
			t.Fatalf("read nested = %q, %v", got, err)
		}
		info, err := f.Stat("src/lib")
		if err != nil || !info.Dir || info.Name != "src/lib" {
			t.Fatalf("stat dir = %+v, %v", info, err)
		}
		// Leading slash is tolerated.
		if _, err := f.Stat("/src/lib/a.go"); err != nil {
			t.Fatalf("leading-slash stat: %v", err)
		}
	})
}

func TestPathErrors(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.Create("nosuchdir/f"); !errors.Is(err, ErrNotFound) {
			t.Errorf("create under missing dir: %v", err)
		}
		if err := f.WriteFile("plain", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := f.Create("plain/child"); !errors.Is(err, ErrNotDir) {
			t.Errorf("create under a file: %v", err)
		}
		if err := f.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt("d", 0, []byte("x")); !errors.Is(err, ErrIsDir) {
			t.Errorf("write to dir: %v", err)
		}
		if _, err := f.ReadFile("d"); !errors.Is(err, ErrIsDir) {
			t.Errorf("read dir: %v", err)
		}
		for _, bad := range []string{"", "/", "a//b", "./x", "a/../b"} {
			if err := f.Create(bad); !errors.Is(err, ErrBadName) {
				t.Errorf("create(%q): %v, want ErrBadName", bad, err)
			}
		}
	})
}

func TestReadDirSortedAndScoped(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(f.Mkdir("d"))
		must(f.Create("d/zz"))
		must(f.Create("d/aa"))
		must(f.Mkdir("d/mid"))
		must(f.Create("top"))
		ents, err := f.ReadDir("d")
		must(err)
		if len(ents) != 3 || ents[0].Name != "d/aa" || ents[1].Name != "d/mid" || ents[2].Name != "d/zz" {
			t.Fatalf("ReadDir(d) = %+v", ents)
		}
		if !ents[1].Dir || ents[0].Dir {
			t.Fatalf("Dir bits wrong: %+v", ents)
		}
		root, err := f.ReadDir("")
		must(err)
		if len(root) != 2 || root[0].Name != "d" || root[1].Name != "top" {
			t.Fatalf("ReadDir(root) = %+v", root)
		}
		// List is the recursive view.
		if l := f.List(); len(l) != 5 {
			t.Fatalf("List = %+v", l)
		}
	})
}

func TestUnlinkDirectory(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteFile("d/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("d"); !errors.Is(err, ErrDirNotEmpty) {
			t.Fatalf("unlink non-empty dir: %v", err)
		}
		if err := f.Unlink("d/f"); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("d"); err != nil {
			t.Fatalf("unlink emptied dir: %v", err)
		}
		if _, err := f.Stat("d"); !errors.Is(err, ErrNotFound) {
			t.Fatal("deleted dir still visible")
		}
		// The path below a deleted dir is gone too.
		if _, err := f.Stat("d/f"); !errors.Is(err, ErrNotFound) {
			t.Fatal("path under deleted dir resolvable")
		}
		// Revival as a file works (type may change across a deletion).
		if err := f.Create("d"); err != nil {
			t.Fatalf("revive as file: %v", err)
		}
		if info, _ := f.Stat("d"); info.Dir {
			t.Fatal("revived entry kept the dir bit")
		}
	})
}

// --- reconciliation over the hierarchy ---------------------------------------

func TestReconcileChildBuildsTree(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		child := forkImage(t, env, f)
		if err := child.Mkdir("out"); err != nil {
			t.Fatal(err)
		}
		if err := child.Mkdir("out/obj"); err != nil {
			t.Fatal(err)
		}
		if err := child.WriteFile("out/obj/a.o", []byte("AAA")); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 0 {
			t.Fatalf("conflicts %v, err %v", conflicts, err)
		}
		got, err := f.ReadFile("out/obj/a.o")
		if err != nil || string(got) != "AAA" {
			t.Fatalf("adopted tree file = %q, %v", got, err)
		}
		if info, err := f.Stat("out"); err != nil || !info.Dir {
			t.Fatalf("adopted dir = %+v, %v", info, err)
		}
	})
}

func TestReconcileBothCreateSameDirNoConflict(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		child := forkImage(t, env, f)
		if err := f.Mkdir("shared"); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteFile("shared/p", []byte("P")); err != nil {
			t.Fatal(err)
		}
		if err := child.Mkdir("shared"); err != nil {
			t.Fatal(err)
		}
		if err := child.WriteFile("shared/c", []byte("C")); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 0 {
			t.Fatalf("same-dir creation conflicted: %v, %v", conflicts, err)
		}
		p, _ := f.ReadFile("shared/p")
		c, _ := f.ReadFile("shared/c")
		if string(p) != "P" || string(c) != "C" {
			t.Fatalf("dir union wrong: %q %q", p, c)
		}
	})
}

func TestReconcileTypeClashConflicts(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		child := forkImage(t, env, f)
		if err := f.WriteFile("x", []byte("file")); err != nil {
			t.Fatal(err)
		}
		if err := child.Mkdir("x"); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 1 || conflicts[0].Name != "x" {
			t.Fatalf("type clash not reported: %v, %v", conflicts, err)
		}
		// Parent's file stands, flagged.
		if _, err := f.ReadFile("x"); !errors.Is(err, ErrConflict) {
			t.Fatalf("clashed file readable: %v", err)
		}
	})
}

func TestReconcileChildDeletesTree(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(f.Mkdir("tmp"))
		must(f.Mkdir("tmp/deep"))
		must(f.WriteFile("tmp/deep/f", []byte("x")))
		child := forkImage(t, env, f)
		must(child.Unlink("tmp/deep/f"))
		must(child.Unlink("tmp/deep"))
		must(child.Unlink("tmp"))
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 0 {
			t.Fatalf("tree deletion: %v, %v", conflicts, err)
		}
		if _, err := f.Stat("tmp"); !errors.Is(err, ErrNotFound) {
			t.Fatal("deleted tree root survived")
		}
	})
}

func TestReconcileDirDeletionVsParentAddConflicts(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		child := forkImage(t, env, f)
		// Parent adds a file into d; child deletes d.
		if err := f.WriteFile("d/keep", []byte("k")); err != nil {
			t.Fatal(err)
		}
		if err := child.Unlink("d"); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 1 || conflicts[0].Name != "d" {
			t.Fatalf("dir deletion under parent adds: %v, %v", conflicts, err)
		}
		// The parent's content is preserved.
		if got, err := f.ReadFile("d/keep"); err != nil || string(got) != "k" {
			t.Fatalf("parent file lost: %q, %v", got, err)
		}
	})
}

// TestReconcileDivergentTreeDeletionConflictsCleanly: the parent
// creates and deletes a tree after the fork while the child
// independently creates the same paths — a genuine divergence. The
// conflict must land on the divergent directory itself (the path the
// documented re-create recovery can actually target), the hidden
// tombstones under the dead directory must not be duplicated or
// silently revived (which would launder the parent's deletion away),
// and the recovery path must leave a working image.
func TestReconcileDivergentTreeDeletionConflictsCleanly(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		child := forkImage(t, env, f)
		// Parent creates and deletes d/y after the fork: tombstones for
		// both survive, y's hidden under the dead directory.
		if err := f.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteFile("d/y", []byte("gone")); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("d/y"); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("d"); err != nil {
			t.Fatal(err)
		}
		// Child independently creates the same paths.
		if err := child.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		if err := child.WriteFile("d/y", []byte("child")); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil {
			t.Fatal(err)
		}
		// Every reported conflict sits at "d" — the divergent entry —
		// never at "d/y", where nothing exists to re-create.
		if len(conflicts) == 0 {
			t.Fatal("divergent delete-vs-create reported no conflict")
		}
		for _, c := range conflicts {
			if c.Name != "d" {
				t.Fatalf("conflict reported at %q, want d", c.Name)
			}
		}
		// The parent's deletion stands: nothing was silently revived or
		// adopted, and no duplicate slot exists for any name.
		if _, err := f.Stat("d"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("divergent dir silently revived: %v", err)
		}
		slots := 0
		for ino := 1; ino < NumInodes; ino++ {
			if f.inUse(ino) && f.name(ino) == "y" {
				slots++
			}
		}
		if slots != 1 {
			t.Fatalf("%d slots named y, want 1 (the parent's tombstone)", slots)
		}
		// The documented recovery targets the reported path and works.
		if err := f.Mkdir("d"); err != nil {
			t.Fatalf("recovery Mkdir(d): %v", err)
		}
		if err := f.WriteFile("d/y", []byte("fresh")); err != nil {
			t.Fatalf("recovery write d/y: %v", err)
		}
		got, _ := f.ReadFile("d/y")
		if string(got) != "fresh" {
			t.Fatalf("recovered d/y = %q", got)
		}
	})
}

// TestConflictedDirRecoveryKeepsChildren: re-creating a conflicted
// directory that still has live entries must keep it a directory —
// Create (as a file) refuses, Mkdir clears the conflict in place.
func TestConflictedDirRecoveryKeepsChildren(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		child := forkImage(t, env, f)
		if err := f.WriteFile("d/x", []byte("keep")); err != nil {
			t.Fatal(err)
		}
		if err := child.Unlink("d"); err != nil { // diverges: parent grew d
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 1 || conflicts[0].Name != "d" {
			t.Fatalf("setup conflicts = %v, %v", conflicts, err)
		}
		// The blanket "re-create to resolve" recovery must not be able
		// to orphan d/x behind a file.
		if err := f.Create("d"); !errors.Is(err, ErrDirNotEmpty) {
			t.Fatalf("Create over conflicted non-empty dir: %v", err)
		}
		if err := f.Mkdir("d"); err != nil {
			t.Fatalf("Mkdir to clear the dir conflict: %v", err)
		}
		got, err := f.ReadFile("d/x")
		if err != nil || string(got) != "keep" {
			t.Fatalf("d/x after recovery = %q, %v", got, err)
		}
	})
}

// TestReconcileAncestorClashReportedAtAncestor: a child file blocked by
// a type clash at an ancestor must be reported at the ancestor (the
// entry actually flagged) — the blanket "Create every reported name"
// recovery must never be handed a path it cannot re-create.
func TestReconcileAncestorClashReportedAtAncestor(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.WriteFile("a", []byte("file")); err != nil {
			t.Fatal(err)
		}
		child := forkImage(t, env, f)
		if err := child.Unlink("a"); err != nil {
			t.Fatal(err)
		}
		if err := child.Mkdir("a"); err != nil {
			t.Fatal(err)
		}
		if err := child.WriteFile("a/b", []byte("under")); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) == 0 {
			t.Fatalf("conflicts %v, err %v", conflicts, err)
		}
		for _, c := range conflicts {
			if c.Name != "a" {
				t.Fatalf("conflict at %q, want every report at the clashed ancestor a", c.Name)
			}
		}
		// Every reported path is re-creatable — the documented recovery.
		for _, c := range conflicts {
			if err := f.Create(c.Name); err != nil && !errors.Is(err, ErrExists) {
				t.Fatalf("recovery Create(%s): %v", c.Name, err)
			}
		}
		if _, err := f.ReadFile("a"); err != nil {
			t.Fatalf("a after recovery: %v", err)
		}
	})
}

// TestReconcileModifyVsTreeDeletionLeavesPlaceholder: the child
// rewrites d/f after the fork while the parent deletes d/f and then d,
// so the parent has no slot reachable at the path at all. Both sides
// changed the entry: the divergence must stay visible as a conflicted
// placeholder at d/f (reviving d and d/f's own tombstone, never a second
// slot) that the documented re-create recovery clears. When the parent
// has since put a file where d was, the report moves to that ancestor.
func TestReconcileModifyVsTreeDeletionLeavesPlaceholder(t *testing.T) {
	setup := func(t *testing.T, env *kernel.Env, f *FS) *FS {
		if err := f.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteFile("d/f", []byte("base")); err != nil {
			t.Fatal(err)
		}
		child := forkImage(t, env, f)
		if err := child.WriteFile("d/f", []byte("child edit")); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("d/f"); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("d"); err != nil {
			t.Fatal(err)
		}
		return child
	}
	slotsNamed := func(f *FS, name string) int {
		n := 0
		for ino := 1; ino < NumInodes; ino++ {
			if f.inUse(ino) && f.name(ino) == name {
				n++
			}
		}
		return n
	}
	withFS(t, func(env *kernel.Env, f *FS) {
		child := setup(t, env, f)
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 1 || conflicts[0].Name != "d/f" {
			t.Fatalf("conflicts %v, err %v, want exactly d/f", conflicts, err)
		}
		if got := conflicts[0].String(); got != "conflict(d/f)" {
			t.Fatalf("the conflict prints as %q", got)
		}
		if info, err := f.Stat("d"); err != nil || !info.Dir || info.Conflicted {
			t.Fatalf("enclosing directory after the pass: %+v, %v", info, err)
		}
		if _, err := f.ReadFile("d/f"); !errors.Is(err, ErrConflict) {
			t.Fatalf("placeholder read: %v, want ErrConflict", err)
		}
		if n := slotsNamed(f, "f"); n != 1 {
			t.Fatalf("%d slots named f, want 1 (the revived tombstone)", n)
		}
		if err := f.Create("d/f"); err != nil {
			t.Fatalf("recovery Create(d/f): %v", err)
		}
		if got, err := f.ReadFile("d/f"); err != nil || len(got) != 0 {
			t.Fatalf("d/f after recovery = %q, %v", got, err)
		}
	})
	withFS(t, func(env *kernel.Env, f *FS) {
		child := setup(t, env, f)
		if err := f.WriteFile("d", []byte("now a file")); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 1 || conflicts[0].Name != "d" {
			t.Fatalf("conflicts %v, err %v, want exactly the clashed ancestor d", conflicts, err)
		}
		if _, err := f.ReadFile("d"); !errors.Is(err, ErrConflict) {
			t.Fatalf("clashed ancestor read: %v, want ErrConflict", err)
		}
		for ino := 1; ino < NumInodes; ino++ {
			if f.name(ino) == "f" && f.iGet(ino, iFlags)&flagExists != 0 {
				t.Fatal("a placeholder was created under the clashed ancestor")
			}
		}
	})
}

// TestReconcileHiddenTombstoneVersionEvidenceConflicts: a tombstone
// resurfacing behind a revived directory chain whose version does not
// match the child's fork stamp proves the parent changed the path too
// (create+delete behind the dead directory) — that is a both-sides
// divergence and must conflict, exactly as if lookup had seen the slot,
// never silently adopt and regress the version.
func TestReconcileHiddenTombstoneVersionEvidenceConflicts(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		// d exists at fork time, so the child's own d entry stays
		// unchanged and never shields the hidden tombstone below it.
		must(f.Mkdir("d"))
		child := forkImage(t, env, f)
		// Parent, after the fork: create d/f (several versions), delete
		// it and the directory — tombstones with high versions, f's
		// hidden under the dead d.
		must(f.WriteFile("d/f", []byte("v1")))
		must(f.WriteFile("d/f", []byte("v2")))
		must(f.Unlink("d/f"))
		must(f.Unlink("d"))
		// Child independently creates the same file.
		must(child.WriteFile("d/f", []byte("child")))
		conflicts, err := f.ReconcileFrom(child)
		if err != nil {
			t.Fatal(err)
		}
		if len(conflicts) == 0 {
			t.Fatal("concurrent create+delete vs create adopted silently")
		}
		// Nothing was silently adopted behind the conflict.
		if _, err := f.ReadFile("d/f"); err == nil {
			t.Fatal("divergent d/f readable after conflicted reconcile")
		}
		// Versions never regress: every in-use slot named f keeps a
		// version at least as high as the parent's tombstone had.
		for ino := 1; ino < NumInodes; ino++ {
			if f.inUse(ino) && f.name(ino) == "f" && f.iGet(ino, iVersion) < 4 {
				t.Fatalf("slot %d version regressed to %d", ino, f.iGet(ino, iVersion))
			}
		}
	})
}
