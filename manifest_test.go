package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/castore"
	"repro/internal/vm"
)

// sparseProgram writes every page once in phase 0, then touches only
// dirtyPages of them (salted with salt) in each later phase — the
// low-dirty-fraction shape incremental checkpoints are built for.
func sparseProgram(phases, pages, dirtyPages int, salt uint64) Program {
	var arr Addr
	return Program{
		Phases: phases,
		Layout: func(rt *RT) {
			arr = rt.Alloc(uint64(pages*4096), 4096)
		},
		Init: func(rt *RT) {},
		Phase: func(rt *RT, p int) error {
			_, err := rt.ParallelDo(2, func(t *Thread) uint64 {
				lo, hi := t.ID*pages/2, (t.ID+1)*pages/2
				if p > 0 {
					lo, hi = t.ID*dirtyPages/2, (t.ID+1)*dirtyPages/2
				}
				for i := lo; i < hi; i++ {
					a := arr + Addr(i*4096)
					v := t.Env().ReadU64(a)*6364136223846793005 + uint64(i)*2654435761 + uint64(p) + salt + 1
					t.Env().WriteU64(a, v)
				}
				return 0
			})
			return err
		},
		Result: func(rt *RT) uint64 {
			var h uint64 = 1
			for i := 0; i < pages; i++ {
				h = h*1099511628211 + rt.Env().ReadU64(arr+Addr(i*4096))
			}
			return h
		},
	}
}

func TestSuspendBindSuspendedBothBackends(t *testing.T) {
	p := sparseProgram(3, 64, 4, 0)
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})}
	res, err := mustSession(t, opts...).RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	want := keyOf(res, err)

	dir, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]BlobStore{"mem": NewMemStore(), "dir": dir} {
		m, err := suspendAt(t, opts, store, p, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A fresh process: reload the manifest from its bytes and resume.
		m2, err := DecodeManifest(m.Bytes())
		if err != nil {
			t.Fatalf("%s: DecodeManifest: %v", name, err)
		}
		if m2.Key() != m.Key() {
			t.Fatalf("%s: manifest key changed across serialization", name)
		}
		_, res, rerr := resumeFrom(t, opts, store, m2, p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("%s: store-backed resume diverged:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestManifestChainStoresIncrementally(t *testing.T) {
	// Suspend after phase 1 (all 256 pages fresh), step on to phase 2 (4
	// pages dirtied), suspend again on the same session: the second save
	// must chain on the first and store far fewer bytes.
	p := sparseProgram(3, 256, 4, 0)
	store := NewMemStore()

	sess := mustSession(t, WithMachine(MachineConfig{CPUsPerNode: 2}))
	if err := sess.Bind(p); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(1); err != nil {
		t.Fatal(err)
	}
	m1, err := sess.Suspend(store)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(1); err != nil {
		t.Fatal(err)
	}
	flat := mustDigest(t, sess) // the content key of the image's flat bytes
	m2, err := sess.Suspend(store)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}

	if pk, ok := m2.Parent(); !ok || pk != m1.Key() {
		t.Fatalf("second manifest parent = %v/%v, want %s", pk, ok, m1.Key())
	}
	if m2.Seq() != m1.Seq()+1 {
		t.Fatalf("chain seq %d after %d", m2.Seq(), m1.Seq())
	}
	delta := s2.StoredSize - s1.StoredSize
	if delta*10 >= s1.StoredSize {
		t.Fatalf("incremental save stored %d of %d bytes (>= 10%%)", delta, s1.StoredSize)
	}

	// The chained image loads byte-identically to its flat form.
	if imageDigest(t, mustLoadImage(t, store, m2)) != flat {
		t.Fatal("chained image differs from its flat form")
	}
}

// chainOnto admits m on a fresh session running p, steps it one phase
// and suspends it again: a checkpoint chained onto m.
func chainOnto(t *testing.T, opts []SessionOption, store BlobStore, m *Manifest, p Program) (*Manifest, error) {
	t.Helper()
	s := mustSession(t, opts...)
	defer s.Close()
	if err := s.BindSuspended(p, store, m); err != nil {
		return nil, err
	}
	if _, err := s.Step(1); err != nil {
		return nil, err
	}
	return s.Suspend(store)
}

// reachableChunks walks a manifest chain and returns every key it can
// reach, using only the public store API (Has is enough: Collect on a
// copy would also work, but this keeps the store intact).
func reachableChunks(t *testing.T, store ChunkStore, root ChunkKey) map[ChunkKey]bool {
	t.Helper()
	// Collect against a scratch copy: everything surviving is reachable.
	scratch := NewMemStore()
	err := store.Keys(func(k ChunkKey, _ BlobInfo) error {
		b, err := store.Get(k)
		if err != nil {
			return err
		}
		return scratch.Put(k, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectChunks(scratch, root); err != nil {
		t.Fatal(err)
	}
	live := make(map[ChunkKey]bool)
	if err := scratch.Keys(func(k ChunkKey, _ BlobInfo) error { live[k] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	return live
}

func TestSiblingSessionsShareChunks(t *testing.T) {
	// Two sessions resume from one parent manifest, diverge on a few
	// pages (different salts), and save. At low dirty fractions their
	// images must share well over half their chunks.
	const pages, dirty = 256, 4
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})}
	store := NewMemStore()

	m0, err := suspendAt(t, opts, store, sparseProgram(3, pages, dirty, 0), 1)
	if err != nil {
		t.Fatal(err)
	}

	var siblings []*Manifest
	for _, salt := range []uint64{0x1000000, 0x2000000} {
		m, err := chainOnto(t, opts, store, m0, sparseProgram(3, pages, dirty, salt))
		if err != nil {
			t.Fatal(err)
		}
		if pk, ok := m.Parent(); !ok || pk != m0.Key() {
			t.Fatalf("sibling did not chain on the parent manifest (%v, %v)", pk, ok)
		}
		siblings = append(siblings, m)
	}

	a := reachableChunks(t, store, siblings[0].Key())
	b := reachableChunks(t, store, siblings[1].Key())
	shared := 0
	for k := range a {
		if b[k] {
			shared++
		}
	}
	union := len(a) + len(b) - shared
	if shared*2 <= union {
		t.Fatalf("siblings share %d of %d chunks (<= 50%%)", shared, union)
	}
}

func TestCollectKeepsSurvivingChains(t *testing.T) {
	const pages, dirty = 128, 4
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})}
	store := NewMemStore()

	m0, err := suspendAt(t, opts, store, sparseProgram(3, pages, dirty, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two divergent children chained on m0.
	var kids []*Manifest
	for _, salt := range []uint64{7, 9} {
		m, err := chainOnto(t, opts, store, m0, sparseProgram(3, pages, dirty, salt))
		if err != nil {
			t.Fatal(err)
		}
		kids = append(kids, m)
	}

	// Drop the first child's chain: the second chain (and, through its
	// parent refs, m0) must survive and still load bit-identically.
	keepImg, err := LoadImage(store, kids[1])
	if err != nil {
		t.Fatal(err)
	}
	keepBytes, err := keepImg.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	st, err := CollectChunks(store, kids[1].Key())
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed == 0 {
		t.Fatal("dropping a sibling chain reclaimed nothing")
	}
	for _, m := range []*Manifest{m0, kids[1]} {
		img, err := LoadImage(store, m)
		if err != nil {
			t.Fatalf("GC broke surviving manifest %s: %v", m.Key(), err)
		}
		if m == kids[1] {
			got, err := img.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, keepBytes) {
				t.Fatal("surviving image changed across GC")
			}
		}
	}
	if _, err := LoadImage(store, kids[0]); !errors.As(err, new(*ChunkMissingError)) {
		t.Fatalf("collected manifest still loads: %v", err)
	}

	// Collecting with no roots empties the store.
	if _, err := CollectChunks(store); err != nil {
		t.Fatal(err)
	}
	final, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if final.Chunks != 0 {
		t.Fatalf("%d chunks survived a rootless collect", final.Chunks)
	}
}

func TestManifestAndChunkCorruptionRejected(t *testing.T) {
	store := NewMemStore()
	m, err := suspendAt(t, []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})},
		store, sparseProgram(2, 32, 4, 0), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated and bit-flipped manifest bytes fail typed.
	raw := m.Bytes()
	if _, err := DecodeManifest(raw[:len(raw)/2]); !errors.As(err, new(*ManifestError)) {
		t.Fatalf("truncated manifest: %v, want ManifestError", err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x20
	if _, err := DecodeManifest(flipped); !errors.As(err, new(*ManifestError)) {
		t.Fatalf("flipped manifest: %v, want ManifestError", err)
	}
	// A non-manifest node (the forest root) is rejected as a manifest.
	forestRaw, err := store.Get(m.forest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(forestRaw); !errors.As(err, new(*ManifestError)) {
		t.Fatalf("forest root as manifest: %v, want ManifestError", err)
	}

	// Deleting any referenced chunk makes LoadImage fail ChunkMissing;
	// corrupting one fails ChunkHash.
	victim := m.meta
	saved, err := store.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(store, m); !errors.As(err, new(*ChunkMissingError)) {
		t.Fatalf("missing metadata chunk: %v, want ChunkMissingError", err)
	}
	if err := store.Put(victim, saved); err != nil {
		t.Fatal(err)
	}
	store.Corrupt(m.forest, []byte{'R', 0xde, 0xad})
	if _, err := LoadImage(store, m); !errors.As(err, new(*ChunkHashError)) {
		t.Fatalf("corrupt forest root: %v, want ChunkHashError", err)
	}
}

// A manifest may name any node as its forest root, and a root's page and
// table counts are claims: a CRC-valid root claiming 0xF0000000 of
// either and listing none used to kill the process in makeslice inside
// LoadImage (resolveShape sized its lists by the claim). It must fail
// with vm's typed error, having allocated nothing of that order.
func TestLoadImageRejectsHostileForestRoot(t *testing.T) {
	store := NewMemStore()
	m, err := suspendAt(t, []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2})},
		store, sparseProgram(2, 32, 4, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := castore.ParseNode(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, counts := range map[string][2]uint32{"pages": {0xF0000000, 0}, "tables": {0, 0xF0000000}} {
		root := []byte{1}                                // chunk root version
		root = binary.LittleEndian.AppendUint32(root, 0) // depth
		root = append(root, 0)                           // no parent
		root = binary.LittleEndian.AppendUint32(root, counts[0])
		root = binary.LittleEndian.AppendUint32(root, 0) // page ops
		root = binary.LittleEndian.AppendUint32(root, counts[1])
		root = binary.LittleEndian.AppendUint32(root, 0) // table ops
		root = binary.LittleEndian.AppendUint32(root, 0) // tail length
		rootKey, err := castore.PutNode(store, nil, nil, root)
		if err != nil {
			t.Fatal(err)
		}
		hostile, err := DecodeManifest(castore.BuildNode([]castore.Key{rootKey}, honest.LeafRefs, honest.Payload))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = LoadImage(store, hostile)
		runtime.ReadMemStats(&after)
		if !errors.As(err, new(*vm.ImageFormatError)) {
			t.Errorf("%s: LoadImage = %v (%T), want *vm.ImageFormatError", name, err, err)
		}
		// The honest metadata chunk is decoded first; it is a few KiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: LoadImage allocated %d bytes before rejecting the root", name, grew)
		}
	}
}
