package repro

// Store-backed checkpoints: SaveImage/LoadImage and the Manifest chain
// that Session.Suspend and Session.BindSuspended build on.
//
// Image.Bytes is the flat, single-blob form of a checkpoint. This file
// is the chunked form: the image's kernel section is split into its
// small metadata and its large vm forest (kernel.SplitImage), the
// forest is transcoded into content-addressed chunks (vm.ChunkForest),
// and a Manifest — a small CRC-framed root object — ties together the
// forest root, the session metadata and the previous manifest of the
// chain. Because the chunk layer is an exact transcoding, an image
// loaded back from a store is byte-identical to the image that was
// saved.
//
// Chaining: each Suspend links the new manifest to the session's
// previous one, and the forest root delta-encodes against the parent's.
// A checkpoint that touched k pages since the previous one therefore
// stores O(k) new chunk bytes, and collecting garbage with only the
// newest manifest as root keeps every ancestor chunk the chain still
// needs (manifests and forest roots reference their parents as node
// children, so reachability covers the chain). A chain is kept by
// pointing one of the store's refs at its head — store.SetRef(name,
// m.Key()), read back with store.Ref and LoadManifest — which is also
// what makes CollectChunks keep it.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/castore"
	"repro/internal/imgenc"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// manifestMagic opens a manifest node's payload, distinguishing it from
// the other node kinds (forest roots) sharing a store.
const manifestMagic = "DMAN"

// ManifestVersion is the current manifest payload version.
const ManifestVersion = 1

// ManifestError reports a structurally invalid manifest.
type ManifestError struct {
	Msg string
}

func (e *ManifestError) Error() string { return "repro: bad manifest: " + e.Msg }

// Manifest is the root object of one store-backed checkpoint: a small
// CRC-framed node referencing the image's chunked forest, its session
// metadata chunk, and (for incremental checkpoints) the parent
// manifest. Manifests are immutable values, stored under Key: name one
// with a ref of the store and reload it with LoadManifest.
type Manifest struct {
	key    castore.Key
	forest castore.Key // root node of the chunked vm forest
	meta   castore.Key // session metadata leaf (flat Image with split kernel)
	parent castore.Key // previous manifest in the chain (zero when none)
	seq    uint64
	raw    []byte
}

// Key returns the manifest's content key — its identity in the store,
// and what a ref that keeps the checkpoint alive points at.
func (m *Manifest) Key() ChunkKey { return m.key }

// Seq is the manifest's position in its chain (0 for a chain head).
func (m *Manifest) Seq() uint64 { return m.seq }

// Parent returns the previous manifest's key and whether one exists.
func (m *Manifest) Parent() (ChunkKey, bool) { return m.parent, !m.parent.IsZero() }

// Bytes returns the manifest's framed, CRC-guarded serialization —
// exactly the bytes stored under Key.
func (m *Manifest) Bytes() []byte { return append([]byte(nil), m.raw...) }

// DecodeManifest parses a serialized manifest, verifying its framing
// and CRC. Truncated or damaged input returns *ManifestError (via the
// node layer) or *ManifestError directly for structural problems.
func DecodeManifest(b []byte) (*Manifest, error) {
	node, err := castore.ParseNode(b)
	if err != nil {
		return nil, &ManifestError{Msg: err.Error()}
	}
	return manifestFromNode(castore.KeyOf(b), node, b)
}

// LoadManifest fetches and decodes the manifest stored under key.
func LoadManifest(store BlobStore, key ChunkKey) (*Manifest, error) {
	b, err := store.Get(key)
	if err != nil {
		return nil, err
	}
	return DecodeManifest(b)
}

// manifestFromNode validates a parsed node as a manifest.
func manifestFromNode(key castore.Key, node *castore.Node, raw []byte) (*Manifest, error) {
	r := &imgenc.Reader{B: node.Payload, Wrap: func(_ int, msg string) error { return &ManifestError{Msg: msg} }}
	if magic := r.Take(len(manifestMagic)); r.Err == nil && string(magic) != manifestMagic {
		return nil, &ManifestError{Msg: "not a manifest object"}
	}
	if v := r.U8(); r.Err == nil && v != ManifestVersion {
		return nil, &ManifestError{Msg: fmt.Sprintf("version %d not supported (max %d)", v, ManifestVersion)}
	}
	m := &Manifest{key: key, seq: r.U64(), raw: append([]byte(nil), raw...)}
	hasParent := r.U8() != 0
	if err := r.Done(); err != nil {
		return nil, err
	}
	wantRefs := 1
	if hasParent {
		wantRefs = 2
	}
	if len(node.NodeRefs) != wantRefs || len(node.LeafRefs) != 1 {
		return nil, &ManifestError{Msg: fmt.Sprintf("reference shape %d/%d, want %d/1",
			len(node.NodeRefs), len(node.LeafRefs), wantRefs)}
	}
	m.forest = node.NodeRefs[0]
	if hasParent {
		m.parent = node.NodeRefs[1]
	}
	m.meta = node.LeafRefs[0]
	return m, nil
}

// SaveImage writes one checkpoint image into a content-addressed store
// and returns its manifest. With a non-nil parent (an earlier manifest
// in the same store), pages and tables unchanged since the parent are
// not re-stored and the new root delta-encodes against the parent's —
// the incremental form Suspend chains automatically.
func SaveImage(store BlobStore, img *Image, parent *Manifest) (*Manifest, error) {
	kmeta, forest, err := kernel.SplitImage(img.Kernel)
	if err != nil {
		return nil, err
	}
	var parentForest, parentKey castore.Key
	var seq uint64
	if parent != nil {
		parentForest, parentKey = parent.forest, parent.key
		seq = parent.seq + 1
	}
	root, err := vm.ChunkForest(store, forest, parentForest)
	if err != nil {
		return nil, err
	}

	metaImg := *img
	metaImg.Kernel = kmeta
	metaBytes, err := metaImg.Bytes()
	if err != nil {
		return nil, err
	}
	metaKey := castore.KeyOf(metaBytes)
	if err := store.Put(metaKey, metaBytes); err != nil {
		return nil, err
	}

	payload := make([]byte, 0, 4+1+8+1)
	payload = append(payload, manifestMagic...)
	payload = append(payload, ManifestVersion)
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	nodeRefs := []castore.Key{root}
	if parent != nil {
		payload = append(payload, 1)
		nodeRefs = append(nodeRefs, parentKey)
	} else {
		payload = append(payload, 0)
	}
	raw := castore.BuildNode(nodeRefs, []castore.Key{metaKey}, payload)
	key := castore.KeyOf(raw)
	if err := store.Put(key, raw); err != nil {
		return nil, err
	}
	return &Manifest{key: key, forest: root, meta: metaKey, parent: parentKey, seq: seq, raw: raw}, nil
}

// LoadImage reassembles the checkpoint image a manifest references.
// The result is byte-identical to the image SaveImage stored: missing
// chunks surface as *ChunkMissingError, damaged ones as
// *ChunkHashError, and structural problems as the owning layer's typed
// image error.
func LoadImage(store BlobStore, m *Manifest) (*Image, error) {
	metaBytes, err := store.Get(m.meta)
	if err != nil {
		return nil, err
	}
	im, err := DecodeImage(metaBytes)
	if err != nil {
		return nil, err
	}
	forest, err := vm.UnchunkForest(store, m.forest)
	if err != nil {
		return nil, err
	}
	full, err := kernel.JoinImage(im.Kernel, forest)
	if err != nil {
		return nil, err
	}
	im.Kernel = full
	return im, nil
}
