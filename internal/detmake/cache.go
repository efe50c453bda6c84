package detmake

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/castore"
	"repro/internal/imgenc"
)

// The build cache is the content-addressed checkpoint store wearing a
// second hat, split the way remote build caches split it:
//
//   - the CAS half is castore itself: every output's bytes live as a
//     chunk under their own SHA-256, and a task's result manifest is a
//     castore node whose LeafRefs are the output chunks — so the
//     store's reachability GC traces build results exactly like
//     checkpoint images, and every Get re-hashes, making corruption a
//     typed *castore.ChunkHashError rather than silent reuse;
//   - the action index is the small mutable map from action key (the
//     content hash of action + input tree) to manifest key. It is the
//     only non-content-addressed state, mirroring the "action cache"
//     of Bazel-style remote caches.
//
// Determinism is what makes the whole scheme sound: the kernel
// guarantees a task's output bits are a pure function of the action
// key's preimage, so a verified hit is bit-identical to re-execution.

// actionKeyVersion salts every action key; bump it when the key
// derivation or the hermetic execution semantics change, so stale
// caches miss instead of serving results computed under old rules.
// Moving the outcome report out of the image (a status file until PR 24,
// a message over the dead image since) needed no bump: only successes
// are recorded, every execution that succeeded under the old rules
// succeeds under the new ones with the same bits, and the one that is
// new — a task that fills its image to the last extent and returns nil
// used to fault writing the status file — had no entry to go stale.
const actionKeyVersion = "detmake action v1\n"

// actionKey derives the cache key of one task against concrete input
// contents: a hash over the action name and args, the sorted
// (path, content-hash) input tree, the sorted output paths, and the
// hermetic image size (it bounds what executions can succeed).
func actionKey(t *Task, inputHash map[string]castore.Key, taskFSSize uint64) castore.Key {
	h := sha256.New()
	h.Write([]byte(actionKeyVersion))
	var sz [8]byte
	binary.LittleEndian.PutUint64(sz[:], taskFSSize)
	h.Write(sz[:])
	h.Write([]byte(t.Action))
	h.Write([]byte{0})
	for _, arg := range t.Args {
		h.Write([]byte(arg))
		h.Write([]byte{0})
	}
	ins := append([]string{}, t.Inputs...)
	sort.Strings(ins)
	for _, in := range ins {
		k := inputHash[in]
		h.Write([]byte(in))
		h.Write([]byte{0})
		h.Write(k[:])
	}
	outs := append([]string{}, t.Outputs...)
	sort.Strings(outs)
	for _, out := range outs {
		h.Write([]byte{1})
		h.Write([]byte(out))
		h.Write([]byte{0})
	}
	var key castore.Key
	h.Sum(key[:0])
	return key
}

// manifestMagic frames a result manifest's payload.
const manifestMagic = "DMK1"

// manifest is the decoded form of a task result node: which output
// paths the LeafRefs hold, in LeafRef order.
type manifest struct {
	Action  castore.Key // the action key this result answers (sanity check)
	Outputs []string    // Outputs[i] is the path of LeafRefs[i]
	Cost    int64       // the task space's virtual-time cost when executed
}

// encodeManifest frames the payload carried by a result node.
func encodeManifest(m manifest) []byte {
	var b []byte
	b = append(b, manifestMagic...)
	b = append(b, m.Action[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Cost))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Outputs)))
	for _, p := range m.Outputs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// decodeManifest parses a result node's payload. Framing damage is a
// *castore.NodeFormatError like any other malformed node.
func decodeManifest(p []byte) (manifest, error) {
	r := &imgenc.Reader{B: p, Wrap: func(_ int, msg string) error {
		return &castore.NodeFormatError{Msg: "detmake manifest: " + msg}
	}}
	if magic := r.Take(len(manifestMagic)); r.Err == nil && string(magic) != manifestMagic {
		r.Failf("wrong magic")
	}
	var m manifest
	copy(m.Action[:], r.Take(castore.KeySize))
	m.Cost = r.I64()
	for n := r.Count(4, "output path"); n > 0; n-- { // a path is at least its length prefix
		m.Outputs = append(m.Outputs, r.Str())
	}
	return m, r.Done()
}

// ActionIndex maps action keys to result-manifest keys: the one piece
// of build-cache state that is not content-addressed. Implementations
// must be sound but need not be complete — a lost entry is a cache
// miss, never an error.
type ActionIndex interface {
	// Lookup returns the manifest key recorded for the action key.
	Lookup(action castore.Key) (castore.Key, bool, error)
	// Record stores action -> manifest, replacing any previous entry.
	Record(action, man castore.Key) error
	// Roots returns every recorded manifest key, sorted, for use as GC
	// roots with castore.Collect.
	Roots() ([]castore.Key, error)
}

// MemIndex is the in-memory ActionIndex.
type MemIndex struct {
	m map[castore.Key]castore.Key
}

// NewMemIndex returns an empty in-memory index.
func NewMemIndex() *MemIndex { return &MemIndex{m: make(map[castore.Key]castore.Key)} }

// Lookup implements ActionIndex.
func (x *MemIndex) Lookup(action castore.Key) (castore.Key, bool, error) {
	k, ok := x.m[action]
	return k, ok, nil
}

// Record implements ActionIndex.
func (x *MemIndex) Record(action, man castore.Key) error {
	x.m[action] = man
	return nil
}

// Roots implements ActionIndex.
func (x *MemIndex) Roots() ([]castore.Key, error) {
	out := make([]castore.Key, 0, len(x.m))
	for _, k := range x.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i][:]) < string(out[j][:])
	})
	return out, nil
}

// DirIndex persists the action index as one small file per action key
// under <dir>, conventionally the "actions" directory beside a
// DirStore's chunk fan-out (DirStore documents such named roots as the
// caller's business). Writes go through castore.WriteFileAtomic, so a
// crashed build never leaves a torn entry and two builds sharing the
// directory never write one temporary file; an unreadable entry is a
// miss, not an error.
type DirIndex struct {
	dir string
}

// OpenDirIndex creates/opens an on-disk index rooted at dir.
func OpenDirIndex(dir string) (*DirIndex, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("detmake: opening action index: %w", err)
	}
	return &DirIndex{dir: dir}, nil
}

func (x *DirIndex) path(action castore.Key) string {
	return filepath.Join(x.dir, action.String())
}

// Lookup implements ActionIndex.
func (x *DirIndex) Lookup(action castore.Key) (castore.Key, bool, error) {
	b, err := os.ReadFile(x.path(action))
	if err != nil {
		if os.IsNotExist(err) {
			return castore.Key{}, false, nil
		}
		return castore.Key{}, false, err
	}
	k, perr := castore.ParseKey(string(b))
	if perr != nil {
		return castore.Key{}, false, nil // torn entry: treat as miss
	}
	return k, true, nil
}

// Record implements ActionIndex.
func (x *DirIndex) Record(action, man castore.Key) error {
	return castore.WriteFileAtomic(x.path(action), []byte(man.String()))
}

// Roots implements ActionIndex.
func (x *DirIndex) Roots() ([]castore.Key, error) {
	ents, err := os.ReadDir(x.dir)
	if err != nil {
		return nil, err
	}
	var out []castore.Key
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		action, err := castore.ParseKey(e.Name())
		if err != nil {
			continue
		}
		k, ok, err := x.Lookup(action)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i][:]) < string(out[j][:])
	})
	return out, nil
}

// storeResult writes one task result into the cache: each output as
// its own chunk, then the manifest node referencing them. With heal
// set (the task re-executed after a rejected cache entry), chunks that
// are nominally present are deleted and re-put, so a corrupted stored
// form is replaced instead of surviving behind Put's idempotence. Each
// output's content key is left in keyOf under its path.
func storeResult(s castore.BlobStore, action castore.Key, outputs []string, bytesOf map[string][]byte, keyOf map[string]castore.Key, cost int64, heal bool) (castore.Key, int64, error) {
	del, canDel := s.(interface{ Delete(castore.Key) error })
	var stored int64
	putBlob := func(k castore.Key, b []byte) error {
		has, err := s.Has(k)
		if err != nil {
			return err
		}
		if has && heal && canDel {
			if err := del.Delete(k); err != nil {
				return err
			}
			has = false
		}
		if !has {
			if err := s.Put(k, b); err != nil {
				return err
			}
			stored += int64(len(b))
		}
		return nil
	}
	leafRefs := make([]castore.Key, len(outputs))
	for i, p := range outputs {
		b := bytesOf[p]
		k := castore.KeyOf(b)
		if err := putBlob(k, b); err != nil {
			return castore.Key{}, stored, err
		}
		leafRefs[i], keyOf[p] = k, k
	}
	node := castore.BuildNode(nil, leafRefs, encodeManifest(manifest{Action: action, Outputs: outputs, Cost: cost}))
	man := castore.KeyOf(node)
	if err := putBlob(man, node); err != nil {
		return castore.Key{}, stored, err
	}
	return man, stored, nil
}

// fetchResult resolves an action key through the index and store,
// re-verifying every chunk hash on the way. The bool reports a usable
// hit; a miss or any verification failure (ChunkMissingError,
// ChunkHashError, NodeFormatError) returns the error for the caller to
// classify — fetch never fabricates bytes.
func fetchResult(s castore.BlobStore, x ActionIndex, action castore.Key) (map[string][]byte, int64, bool, error) {
	man, ok, err := x.Lookup(action)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	node, err := castore.GetNode(s, man)
	if err != nil {
		return nil, 0, false, err
	}
	m, err := decodeManifest(node.Payload)
	if err != nil {
		return nil, 0, false, err
	}
	if m.Action != action || len(m.Outputs) != len(node.LeafRefs) {
		return nil, 0, false, &castore.NodeFormatError{Msg: "detmake manifest: answers a different action"}
	}
	out := make(map[string][]byte, len(m.Outputs))
	var fetched int64
	for i, p := range m.Outputs {
		b, err := s.Get(node.LeafRefs[i]) // re-hashes: corruption is typed here
		if err != nil {
			return nil, 0, false, err
		}
		out[p] = b
		fetched += int64(len(b))
	}
	return out, fetched, true, nil
}
