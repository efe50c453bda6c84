package fs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// Regression tests for freed-slot hygiene: inode slots can now actually
// be freed (tombstone reclamation at Compact, aborted adoptions), so
// every table scan must gate on the explicit in-use test and freed slots
// must be scrubbed — the old code iterated the raw table and would have
// reported whatever stale name bytes a freed slot still held.

// TestFailedAdoptionLeavesNoHalfEntry: reconciliation adopts a child
// file into a parent whose image cannot hold the data. The adoption must
// fail cleanly — no live entry, no stale-named slot, parent still
// consistent. The pre-fix ordering set the name and flags before
// allocating the extent, so the failure left a live file whose extent
// fields were garbage.
func TestFailedAdoptionLeavesNoHalfEntry(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		child := forkImage(t, env, f)
		// After the fork, the parent claims half its image (a canonical
		// half-image extent)...
		filler := bytes.Repeat([]byte{1}, int(testSize)/2)
		if err := f.WriteFile("filler", filler); err != nil {
			t.Fatal(err)
		}
		// ...while the child writes a file whose canonical extent no
		// longer fits next to the filler.
		if err := child.WriteFile("big", bytes.Repeat([]byte{2}, int(testSize)/2)); err != nil {
			t.Fatal(err)
		}
		_, err := f.ReconcileFrom(child)
		if !errors.Is(err, ErrNoSpace) {
			t.Fatalf("reconcile into a full image: err = %v, want ErrNoSpace", err)
		}
		// No half-adopted entry may be visible through any read path.
		if _, err := f.Stat("big"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("half-adopted file is statable: %v", err)
		}
		for _, info := range f.List() {
			if info.Name == "big" {
				t.Fatal("half-adopted file shows up in List")
			}
		}
		// The slot went back to the pool with its name scrubbed.
		for ino := 1; ino < NumInodes; ino++ {
			if !f.inUse(ino) && f.name(ino) != "" {
				t.Fatalf("freed slot %d still holds name %q", ino, f.name(ino))
			}
		}
		// The parent's own state is untouched and the image still works.
		got, err := f.ReadFile("filler")
		if err != nil || !bytes.Equal(got, filler) {
			t.Fatal("filler damaged by failed adoption")
		}
		if err := f.Create("empty-still-fits"); err != nil {
			t.Fatalf("image unusable after failed adoption: %v", err)
		}
	})
}

// TestReclaimedTombstoneInvisible: Compact frees deletion records; the
// freed slots must be undetectable afterwards and a re-created file
// starts a fresh history (version 1, not a revival of the scrubbed
// slot's).
func TestReclaimedTombstoneInvisible(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.WriteFile("doomed", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := f.Unlink("doomed"); err != nil {
			t.Fatal(err)
		}
		st, err := f.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.Tombs != 1 {
			t.Fatalf("reclaimed %d tombstones, want 1", st.Tombs)
		}
		for ino := 1; ino < NumInodes; ino++ {
			if f.name(ino) == "doomed" {
				t.Fatalf("slot %d still names the reclaimed file", ino)
			}
		}
		if err := f.Create("doomed"); err != nil {
			t.Fatal(err)
		}
		info, err := f.Stat("doomed")
		if err != nil || info.Version != 1 {
			t.Fatalf("re-created file version = %d, want a fresh history (1)", info.Version)
		}
	})
}

// TestStaleNameBytesInFreeSlotIgnored plants name bytes directly into a
// free slot — the torn state a crash mid-create could leave — and
// asserts every lookup path treats the slot as free: the explicit
// in-use gate, not the name bytes, decides visibility.
func TestStaleNameBytesInFreeSlotIgnored(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.Create("real"); err != nil {
			t.Fatal(err)
		}
		ino := f.freeInode()
		f.setName(ino, "ghost") // flags stay zero: the slot is free
		if _, err := f.Stat("ghost"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("free slot with stale name is statable: %v", err)
		}
		if got := f.lookupAny("ghost"); got >= 0 {
			t.Fatalf("lookupAny found the free slot (%d)", got)
		}
		if l := f.List(); len(l) != 1 || l[0].Name != "real" {
			t.Fatalf("List = %+v, want only the real file", l)
		}
		// Creating the name claims a slot normally (possibly that one)
		// and the entry behaves as brand new.
		if err := f.Create("ghost"); err != nil {
			t.Fatal(err)
		}
		info, err := f.Stat("ghost")
		if err != nil || info.Version != 1 || info.Size != 0 {
			t.Fatalf("created-over-stale entry = %+v, %v", info, err)
		}
	})
}

// TestReviveResetsForkSize is the append-only revive regression: a
// child that deletes and re-creates an append-only file severs its
// relation to the fork-time content, so its whole new content must
// merge as appended bytes. With the stale fork size the merge dropped
// the revived content entirely (or grafted a mid-file slice).
func TestReviveResetsForkSize(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		base := bytes.Repeat([]byte{'B'}, 100)
		if err := f.CreateAppendOnly("log"); err != nil {
			t.Fatal(err)
		}
		if err := f.Append("log", base); err != nil {
			t.Fatal(err)
		}
		child := forkImage(t, env, f)
		// Parent appends too, forcing the append-only merge branch.
		if err := f.Append("log", []byte("-parent")); err != nil {
			t.Fatal(err)
		}
		if err := child.Unlink("log"); err != nil {
			t.Fatal(err)
		}
		if err := child.CreateAppendOnly("log"); err != nil {
			t.Fatal(err)
		}
		if err := child.Append("log", []byte("revived")); err != nil {
			t.Fatal(err)
		}
		conflicts, err := f.ReconcileFrom(child)
		if err != nil || len(conflicts) != 0 {
			t.Fatalf("append-only revive: %v, %v", conflicts, err)
		}
		got, err := f.ReadFile("log")
		want := string(base) + "-parent" + "revived"
		if err != nil || string(got) != want {
			t.Fatalf("merged log = %q, want %q", got, want)
		}
	})
}

// TestAttachRejectsDamagedAllocatorState: a corrupt cursor or free
// entry must be refused at Attach, not crash or corrupt metadata later.
func TestAttachRejectsDamagedAllocatorState(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.WriteFile("x", []byte("data")); err != nil {
			t.Fatal(err)
		}
		cursor := f.gu32(sbCursor)
		f.pu32(sbCursor, 17) // inside the superblock page
		if _, err := Attach(env, testBase, testSize); err == nil {
			t.Fatal("attach accepted a cursor pointing at the superblock")
		}
		f.pu32(sbCursor, cursor)
		if _, err := Attach(env, testBase, testSize); err != nil {
			t.Fatalf("restored image rejected: %v", err)
		}
		f.pu32(sbFreeCount, 1)
		f.pu32(freeTable, 0)             // off 0: the superblock itself
		f.pu32(freeTable+4, vm.PageSize) // one page "free" over metadata
		if _, err := Attach(env, testBase, testSize); err == nil {
			t.Fatal("attach accepted a free extent over the metadata pages")
		}
	})
}

// TestAppendOnlyMergeSkipsConflictedParent: once a type clash marks an
// append-only file conflicted, a later child's append in the same pass
// must surface as a reported conflict, not merge bytes into an entry
// whose recovery truncates them silently.
func TestAppendOnlyMergeSkipsConflictedParent(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.CreateAppendOnly("log"); err != nil {
			t.Fatal(err)
		}
		childA := forkImage(t, env, f)
		env.SetPerm(scratch+0x0100_0000, testSize, vm.PermRW)
		buf := make([]byte, testSize)
		env.Read(testBase, buf)
		env.Write(scratch+0x0100_0000, buf)
		childB, err := Attach(env, scratch+0x0100_0000, testSize)
		if err != nil {
			t.Fatal(err)
		}
		childB.StampFork()

		// Child A replaces the log with a directory: type clash flags
		// the parent's file.
		if err := childA.Unlink("log"); err != nil {
			t.Fatal(err)
		}
		if err := childA.Mkdir("log"); err != nil {
			t.Fatal(err)
		}
		if err := childB.Append("log", []byte("B-bytes")); err != nil {
			t.Fatal(err)
		}
		if conflicts, err := f.ReconcileFrom(childA); err != nil || len(conflicts) == 0 {
			t.Fatalf("clash setup: %v, %v", conflicts, err)
		}
		conflicts, err := f.ReconcileFrom(childB)
		if err != nil {
			t.Fatal(err)
		}
		if len(conflicts) != 1 || conflicts[0].Name != "log" {
			t.Fatalf("append into conflicted file not reported: %v", conflicts)
		}
	})
}

// TestAttachRejectsCorruptInodeExtent: a replica whose inode extent
// fields were trampled (the wild-write threat) must be refused at
// Attach rather than faulting the machine mid-reconcile.
func TestAttachRejectsCorruptInodeExtent(t *testing.T) {
	withFS(t, func(env *kernel.Env, f *FS) {
		if err := f.WriteFile("x", []byte("data")); err != nil {
			t.Fatal(err)
		}
		ino := f.lookup("x")
		good := f.iGet(ino, iExtOff)
		f.iPut(ino, iExtOff, 0xFFFF_0000) // far outside the image
		if _, err := Attach(env, testBase, testSize); err == nil {
			t.Fatal("attach accepted an out-of-chain inode extent")
		}
		f.iPut(ino, iExtOff, good)
		if _, err := Attach(env, testBase, testSize); err != nil {
			t.Fatalf("restored image rejected: %v", err)
		}
		f.iPut(ino, iSize, f.iGet(ino, iExtCap)+1)
		if _, err := Attach(env, testBase, testSize); err == nil {
			t.Fatal("attach accepted size > capacity")
		}
	})
}
