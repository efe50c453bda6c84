package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/imgenc"
	"repro/internal/vm"
)

// A tiny phased program used by the checkpoint tests: a shared region at
// ckBase, one child forked per phase that mutates its replica, a merge
// back, and device reads folded into a running checksum so clock/entropy
// cursors matter to the result.
const (
	ckBase vm.Addr = 0x1000_0000
	ckSize uint64  = 4 << 20
)

func ckChild(phase int) Prog {
	return func(env *Env) {
		env.Tick(50 * int64(phase+1))
		a := ckBase + vm.Addr(phase*vm.PageSize)
		env.WriteU64(a, env.ReadU64(a)+uint64(phase)*3+1)
	}
}

// ckPhase runs one fork/merge round plus device reads.
func ckPhase(t testing.TB, env *Env, phase int) {
	env.Tick(100)
	if err := env.Put(1, PutOpts{
		Regs:  &Regs{Entry: ckChild(phase), Arg: uint64(phase)},
		Copy:  &CopyRange{Src: ckBase, Dst: ckBase, Size: ckSize},
		Snap:  true,
		Start: true,
	}); err != nil {
		t.Errorf("phase %d put: %v", phase, err)
		return
	}
	if _, err := env.Get(1, GetOpts{Regs: true, Merge: true,
		MergeRange: &Range{Addr: ckBase, Size: ckSize}}); err != nil {
		t.Errorf("phase %d get: %v", phase, err)
		return
	}
	sum := env.ReadU64(ckBase + 8*vm.PageSize)
	sum = sum*31 + uint64(env.ClockNow()) + env.RandUint64()
	env.WriteU64(ckBase+8*vm.PageSize, sum)
}

func ckResult(env *Env) {
	var out uint64
	for p := 0; p < 9; p++ {
		out = out*1099511628211 + env.ReadU64(ckBase+vm.Addr(p*vm.PageSize))
	}
	env.SetRet(out)
}

const ckPhases = 4

// ckProg runs phases [start, ckPhases). Setup runs only when start==0.
func ckProg(t testing.TB, start int, onBarrier func(env *Env, nextPhase int) bool) Prog {
	return func(env *Env) {
		if start == 0 {
			env.SetPerm(ckBase, ckSize, vm.PermRW)
		}
		for p := start; p < ckPhases; p++ {
			ckPhase(t, env, p)
			if onBarrier != nil && !onBarrier(env, p+1) {
				return
			}
		}
		ckResult(env)
	}
}

func ckConfig() Config {
	return Config{CPUsPerNode: 2}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	// Reference: the uninterrupted run.
	want := New(ckConfig()).Run(ckProg(t, 0, nil), 0)
	if want.Err != nil {
		t.Fatalf("uninterrupted run: %v", want.Err)
	}

	for stop := 1; stop < ckPhases; stop++ {
		// A run that checkpoints at the barrier after phase stop-1 and
		// halts there.
		var img []byte
		res := New(ckConfig()).Run(ckProg(t, 0, func(env *Env, next int) bool {
			if next != stop {
				return true
			}
			var err error
			img, err = env.Checkpoint(CheckpointOpts{})
			if err != nil {
				t.Errorf("checkpoint at %d: %v", next, err)
			}
			return false
		}), 0)
		if res.Err != nil {
			t.Fatalf("checkpointing run: %v", res.Err)
		}
		if img == nil {
			t.Fatalf("no image captured at phase %d", stop)
		}

		// Resume in a fresh machine and run the remaining phases.
		m := New(ckConfig())
		if err := m.Restore(img); err != nil {
			t.Fatalf("restore at %d: %v", stop, err)
		}
		got := m.Run(ckProg(t, stop, nil), 0)
		if got.Err != nil {
			t.Fatalf("resumed run: %v", got.Err)
		}
		if got.Ret != want.Ret || got.VT != want.VT || got.Insns != want.Insns || got.Net != want.Net {
			t.Fatalf("resume at phase %d diverged:\n got %+v\nwant %+v", stop, got, want)
		}
	}
}

// A checkpoint must be a pure observation: taking one mid-run and
// continuing produces bit-identical results to never taking one.
func TestCheckpointIsVTNeutral(t *testing.T) {
	want := New(ckConfig()).Run(ckProg(t, 0, nil), 0)
	got := New(ckConfig()).Run(ckProg(t, 0, func(env *Env, next int) bool {
		if _, err := env.Checkpoint(CheckpointOpts{}); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		return true // keep running after every checkpoint
	}), 0)
	if got.Ret != want.Ret || got.VT != want.VT || got.Insns != want.Insns {
		t.Fatalf("checkpointing run diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	res := New(ckConfig()).Run(func(env *Env) {
		// A child parked at a Ret cannot be serialized.
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(e *Env) { e.Ret(); e.Tick(1) }},
			Start: true,
		}); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if _, err := env.Get(1, GetOpts{}); err != nil { // rendezvous: child parked
			t.Errorf("get: %v", err)
			return
		}
		_, err := env.Checkpoint(CheckpointOpts{})
		var nq *NotQuiescentError
		if !errors.As(err, &nq) {
			t.Errorf("parked child: got %v, want *NotQuiescentError", err)
			return
		}
		// The ref in the error is the node-qualified child key.
		if nq.Ref != ChildOn(0, 1) || nq.Status != StatusRet {
			t.Errorf("NotQuiescentError fields: %+v", nq)
		}
		// Explicitly allowing the parked child makes it serializable as a
		// restartable space.
		if _, err := env.Checkpoint(CheckpointOpts{AllowParked: []uint64{1}}); err != nil {
			t.Errorf("allow-parked checkpoint: %v", err)
		}
	}, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestCheckpointOnlyRoot(t *testing.T) {
	res := New(ckConfig()).Run(func(env *Env) {
		err := env.Put(1, PutOpts{Regs: &Regs{Entry: func(e *Env) {
			if _, err := e.Checkpoint(CheckpointOpts{}); err == nil {
				t.Error("non-root checkpoint succeeded")
			}
		}}, Start: true})
		if err != nil {
			t.Error(err)
		}
		env.Get(1, GetOpts{})
	}, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

// captureImage runs the deterministic phased program to a fixed barrier
// and returns the image — the corpus for the format tests below.
func captureImage(t testing.TB) []byte {
	t.Helper()
	var img []byte
	res := New(ckConfig()).Run(ckProg(t, 0, func(env *Env, next int) bool {
		if next != 2 {
			return true
		}
		var err error
		img, err = env.Checkpoint(CheckpointOpts{})
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		return false
	}), 0)
	if res.Err != nil || img == nil {
		t.Fatalf("capture failed: %v", res.Err)
	}
	return img
}

// The golden-file test pins the image format: identical machine state
// must serialize to identical bytes, and any (intentional) format change
// must come with a version bump and a regenerated golden file. A change
// in what the encoder writes within the same grammar regenerates the
// golden alone, and keeps the bytes it replaces as a fixture that must
// still restore (TestCheckpointImageWithDirtySections).
func TestCheckpointGoldenImage(t *testing.T) {
	img := captureImage(t)
	if img[4] != CheckpointVersion {
		t.Fatalf("version byte at offset 4 is %d, want %d", img[4], CheckpointVersion)
	}
	golden := filepath.Join("testdata", "ckpt_v1.golden")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("golden file created; commit %s and re-run", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("image bytes differ from golden file (%d vs %d bytes); "+
			"format changes require a CheckpointVersion bump and a regenerated golden", len(img), len(want))
	}
	// The golden image still restores and resumes to the same result.
	m := New(ckConfig())
	if err := m.Restore(want); err != nil {
		t.Fatalf("golden restore: %v", err)
	}
	got := m.Run(ckProg(t, 2, nil), 0)
	ref := New(ckConfig()).Run(ckProg(t, 0, nil), 0)
	if got.Ret != ref.Ret || got.VT != ref.VT {
		t.Fatalf("golden resume diverged: got %+v want %+v", got, ref)
	}
}

// ckpt_v1_dirty.golden is the golden image as the encoder wrote it while
// the forest carried per-space dirty bitmaps and snapshot links: the same
// grammar and version, with those sections non-empty. It must restore and
// resume to the uninterrupted run's result, and to the same machine the
// current golden restores to.
func TestCheckpointImageWithDirtySections(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "ckpt_v1_dirty.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join("testdata", "ckpt_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old, cur) {
		t.Fatal("the fixture is the current golden")
	}
	m := New(ckConfig())
	if err := m.Restore(old); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := m.Run(ckProg(t, 2, nil), 0)
	ref := New(ckConfig()).Run(ckProg(t, 0, nil), 0)
	if got.Ret != ref.Ret || got.VT != ref.VT {
		t.Fatalf("resume diverged: got %+v want %+v", got, ref)
	}
	a, b := New(ckConfig()), New(ckConfig())
	if err := a.Restore(old); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(cur); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recapture(t, a), recapture(t, b)) {
		t.Fatal("the fixture and the golden restore to different machines")
	}
}

func TestRestoreRejectsBadImages(t *testing.T) {
	img := captureImage(t)
	var bad *BadImageError
	var verr *ImageVersionError

	for _, cut := range []int{0, 4, 8, len(img) / 3, len(img) - 1} {
		if err := New(ckConfig()).Restore(img[:cut]); !errors.As(err, &bad) {
			t.Fatalf("truncated at %d: got %v, want *BadImageError", cut, err)
		}
	}
	flip := append([]byte(nil), img...)
	flip[len(flip)/2] ^= 0x10
	if err := New(ckConfig()).Restore(flip); !errors.As(err, &bad) {
		t.Fatalf("corrupt: got %v, want *BadImageError", err)
	}
	// A negative device cursor is rejected while decoding — fastForward
	// would skip its loops and store it — and the machine stays pristine.
	for i, dev := range []string{"clock", "rand", "console"} {
		neg := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(neg[cursorsAt+8*i:], uint64(1)<<63|uint64(i))
		fixImageCRC(neg)
		m := New(ckConfig())
		if err := m.Restore(neg); !errors.As(err, &bad) {
			t.Fatalf("negative %s cursor: got %v, want *BadImageError", dev, err)
		}
		if m.broken != nil {
			t.Fatalf("negative %s cursor poisoned the machine: %v", dev, m.broken)
		}
		if err := m.Restore(img); err != nil {
			t.Fatalf("machine that rejected a negative %s cursor: %v", dev, err)
		}
	}
	// Forward-compat: a version bump fails closed with the typed error.
	futur := append([]byte(nil), img...)
	futur[4] = CheckpointVersion + 1
	fixImageCRC(futur)
	err := New(ckConfig()).Restore(futur)
	if !errors.As(err, &verr) || verr.Version != CheckpointVersion+1 {
		t.Fatalf("future version: got %v, want *ImageVersionError{Version: %d}", err, CheckpointVersion+1)
	}
}

func TestRestoreRejectsConfigMismatch(t *testing.T) {
	img := captureImage(t)
	var mm *ImageMismatchError

	cfg := ckConfig()
	cfg.CPUsPerNode = 7
	if err := New(cfg).Restore(img); !errors.As(err, &mm) || mm.Field != "CPUs per node" {
		t.Fatalf("cpu mismatch: got %v", err)
	}
	cfg = ckConfig()
	cfg.Nodes = 3
	if err := New(cfg).Restore(img); !errors.As(err, &mm) || mm.Field != "node count" {
		t.Fatalf("node mismatch: got %v", err)
	}
	cfg = ckConfig()
	cfg.Cost = DefaultCostModel()
	cfg.Cost.PageCompare++
	if err := New(cfg).Restore(img); !errors.As(err, &mm) || mm.Field != "cost model" {
		t.Fatalf("cost mismatch: got %v", err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "ckpt_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if err := New(ckConfig()).Restore(uncachedImage(golden)); !errors.As(err, &mm) || mm.Field != "read-only page cache" {
		t.Fatalf("uncached mode: got %v, want *ImageMismatchError", err)
	}
}

// A residency record of kind 2 — the standalone fetched set of the
// retired uncached mode — is refused, not rebuilt.
func TestDecodeResidencyRejectsStandaloneSet(t *testing.T) {
	rec := []byte{0, 0, 2, 0, 0, 0, 0, 0} // no caches, kind 2, an empty page set
	r := &imgenc.Reader{B: rec, Wrap: badImage}
	var bad *BadImageError
	if New(ckConfig()).decodeResidency(r, &Space{}) || !errors.As(r.Err, &bad) {
		t.Fatalf("kind 2: got %v, want *BadImageError", r.Err)
	}
}

// mnConfig is the multi-node checkpoint tests' machine: ckConfig's CPUs
// and cost model on 3 nodes.
var mnConfig = Config{Nodes: 3, CPUsPerNode: 2}

// mnProg runs ckPhases phases as ckProg does, phase p forking its child
// on node p%3, so the root migrates every phase.
func mnProg(t testing.TB, start int, onBarrier func(env *Env, next int) bool) Prog {
	return func(env *Env) {
		if start == 0 {
			env.SetPerm(ckBase, ckSize, vm.PermRW)
		}
		for p := start; p < ckPhases; p++ {
			env.Tick(10)
			ref := ChildOn(p%3, 1)
			if err := env.Put(ref, PutOpts{
				Regs:  &Regs{Entry: ckChild(p), Arg: uint64(p)},
				Copy:  &CopyRange{Src: ckBase, Dst: ckBase, Size: ckSize},
				Snap:  true,
				Start: true,
			}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if _, err := env.Get(ref, GetOpts{Merge: true,
				MergeRange: &Range{Addr: ckBase, Size: ckSize}}); err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if onBarrier != nil && !onBarrier(env, p+1) {
				return
			}
		}
		ckResult(env)
	}
}

// mnImage captures mnProg's machine at the barrier before phase stop and
// returns the image and the root's residency record as encoded.
func mnImage(t testing.TB, stop int) (img, rec []byte) {
	t.Helper()
	if res := New(mnConfig).Run(mnProg(t, 0, func(env *Env, next int) bool {
		if next != stop {
			return true
		}
		var err error
		if img, err = env.Checkpoint(CheckpointOpts{}); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		rec = env.sp.encodeResidency(nil)
		return false
	}), 0); res.Err != nil || img == nil {
		t.Fatalf("capture failed: %v", res.Err)
	}
	return img, rec
}

// spliceRootResidency returns img with the root's residency record, old,
// replaced by rec, the tree section's length fixed up and the image
// re-sealed. The record follows the root's fixed fields (82 bytes for a
// root, which records no trap cause) and its CPU pools.
func spliceRootResidency(t testing.TB, img, old, rec []byte) []byte {
	t.Helper()
	treeLen := 5 + configSectionLen
	at := treeLen + 4 + 82
	pools := int(binary.LittleEndian.Uint16(img[at:]))
	for at += 2; pools > 0; pools-- {
		at += 4 + 2 + 8*int(binary.LittleEndian.Uint16(img[at+4:]))
	}
	if !bytes.Equal(img[at:at+len(old)], old) {
		t.Fatal("the root's residency record is not where the layout puts it")
	}
	b := append(append(append([]byte(nil), img[:at]...), rec...), img[at+len(old):len(img)-4]...)
	binary.LittleEndian.PutUint32(b[treeLen:], binary.LittleEndian.Uint32(b[treeLen:])+uint32(len(rec))-uint32(len(old)))
	return imgenc.Seal(b)
}

// residencyVariants are the root residency records the decoder must
// refuse or translate, derived from rec, a record naming node 1's cache
// beside node 0's (mnImage at stop 2): the fetched set naming another
// node's cache; caches with no fetched set; and a multi-node space with
// no caches, as an image written while nil meant everything resident.
func residencyVariants(rec []byte) (otherNode, noFetched, noCaches []byte) {
	otherNode = binary.LittleEndian.AppendUint32(append([]byte(nil), rec[:len(rec)-4]...), 0)
	noFetched = append(append([]byte(nil), rec[:len(rec)-5]...), 0)
	return otherNode, noFetched, []byte{0, 0, 0}
}

// Multi-node machines carry residency caches, per-node pools and traffic
// counters through the image.
func TestCheckpointResumeMultiNode(t *testing.T) {
	want := New(mnConfig).Run(mnProg(t, 0, nil), 0)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if want.Net.Msgs == 0 {
		t.Fatal("test expects cross-node traffic")
	}
	for stop := 1; stop < ckPhases; stop++ {
		img, _ := mnImage(t, stop)
		m := New(mnConfig)
		if err := m.Restore(img); err != nil {
			t.Fatalf("restore: %v", err)
		}
		got := m.Run(mnProg(t, stop, nil), 0)
		if got.Ret != want.Ret || got.VT != want.VT || got.Net != want.Net {
			t.Fatalf("multi-node resume at %d diverged:\n got %+v\nwant %+v", stop, got, want)
		}
	}
}

// The residency record's fetched set names the cache of the space's
// current node. A record naming another node's cache, or caches beside
// no fetched set, is refused; a multi-node space recorded with no caches
// restores with its current node's cache holding every page.
func TestRestoreResidencyRecord(t *testing.T) {
	img, rec := mnImage(t, 2)
	if want := []byte{1, 1, 0, 0, 0}; !bytes.Equal(rec[len(rec)-5:], want) {
		t.Fatalf("root residency record ends % x, want the fetched set of node 1, % x", rec[len(rec)-5:], want)
	}
	otherNode, noFetched, noCaches := residencyVariants(rec)
	var bad *BadImageError
	for _, tc := range []struct {
		name string
		rec  []byte
	}{{"another node's cache", otherNode}, {"caches without a fetched set", noFetched}} {
		if err := New(mnConfig).Restore(spliceRootResidency(t, img, rec, tc.rec)); !errors.As(err, &bad) {
			t.Errorf("%s: got %v, want *BadImageError", tc.name, err)
		}
	}
	m := New(mnConfig)
	if err := m.Restore(spliceRootResidency(t, img, rec, noCaches)); err != nil {
		t.Fatalf("no caches: %v", err)
	}
	root := m.root
	if c := root.caches[root.node.id]; len(root.caches) != 1 || c == nil || !c.all || len(c.except) != 0 {
		t.Errorf("no caches restored as %+v, want node %d's cache holding everything", root.caches, root.node.id)
	}
}

func fixImageCRC(img []byte) {
	payload := img[:len(img)-4]
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(payload))
}

// A child that crashed before the checkpoint is still a crashed child
// after the restore: the parent's Get reports the same status, and the
// trap cause crosses the image as its message (error types are Go values
// and cannot).
func TestCheckpointKeepsTrapCause(t *testing.T) {
	var img []byte
	var cause string
	res := New(ckConfig()).Run(func(env *Env) {
		if err := env.Put(1, PutOpts{
			Regs:  &Regs{Entry: func(c *Env) { c.ReadU32(0xdead0000) }},
			Start: true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(1, GetOpts{})
		if err != nil || info.Status != StatusFault {
			panic("the child did not fault")
		}
		cause = info.Err.Error()
		if img, err = env.Checkpoint(CheckpointOpts{}); err != nil {
			panic(err)
		}
	}, 0)
	if res.Err != nil {
		t.Fatalf("checkpointing run: %v", res.Err)
	}
	m := New(ckConfig())
	if err := m.Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	res = m.Run(func(env *Env) {
		info, err := env.Get(1, GetOpts{})
		if err != nil {
			panic(err)
		}
		if info.Status != StatusFault || info.Err == nil || info.Err.Error() != cause {
			panic(fmt.Sprintf("restored child reports %v: %v, want fault: %s", info.Status, info.Err, cause))
		}
	}, 0)
	if res.Err != nil {
		t.Fatalf("resumed run: %v", res.Err)
	}
}
