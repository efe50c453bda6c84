package detmake

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
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
//     content hash of action + input tree) to manifest key: the store's
//     refs under actions/. It is the only non-content-addressed state,
//     mirroring the "action cache" of Bazel-style remote caches.
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
// of build-cache state that is not content-addressed. It must be sound
// but need not be complete — a lost entry is a cache miss, never an
// error. There is one implementation, refIndex; the interface and the
// two constructors below it remain because benchmark/, frozen between
// the PRs it compares, embeds the one and calls the others. Everything
// else leaves Config.Index nil.
type ActionIndex interface {
	// Lookup returns the manifest key recorded for the action key.
	Lookup(action castore.Key) (castore.Key, bool, error)
	// Record stores action -> manifest, replacing any previous entry.
	Record(action, man castore.Key) error
}

// refIndex is the action index: the refs of a store under dir/, one per
// action key — so the store that holds a build's results also names
// them, and castore.Collect keeps them with no root set handed to it.
type refIndex struct {
	store castore.BlobStore
	dir   string
}

// Lookup implements ActionIndex. An entry whose value is not a key is a
// miss, not an error: the task re-executes and Record replaces it.
func (x refIndex) Lookup(action castore.Key) (castore.Key, bool, error) {
	man, ok, err := x.store.Ref(x.dir + "/" + action.String())
	if errors.As(err, new(*castore.RefError)) {
		err = nil
	}
	return man, ok, err
}

// Record implements ActionIndex.
func (x refIndex) Record(action, man castore.Key) error {
	return x.store.SetRef(x.dir+"/"+action.String(), man)
}

// actionsDir is where a store's action index lives.
const actionsDir = "actions"

// NewMemIndex returns an empty in-memory index: the refs of a MemStore
// of its own.
func NewMemIndex() ActionIndex { return refIndex{castore.NewMemStore(), actionsDir} }

// OpenDirIndex returns the index whose entries are the files of dir,
// which is the refs under dir's base name of a DirStore at its parent.
func OpenDirIndex(dir string) (ActionIndex, error) {
	s, err := castore.OpenDirStore(filepath.Dir(dir))
	if err != nil {
		return nil, fmt.Errorf("detmake: opening action index: %w", err)
	}
	return refIndex{s, filepath.Base(dir)}, nil
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
