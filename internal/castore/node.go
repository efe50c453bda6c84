package castore

// Node framing: the one structured object shape the store understands.
// A node is a reference list — child nodes and leaf chunks by key — plus
// an opaque, layer-owned payload. Checkpoint roots and session manifests
// are nodes; pages, table chunks and metadata sections are leaves.
//
// Putting the reference lists in a standard frame buys two things: the
// garbage collector can trace reachability through any object graph
// without knowing the payload formats, and payloads can refer to their
// own leaf children by small index instead of repeating 32-byte keys.
// Every node carries a CRC32 trailer, so a manifest or root damaged
// outside the store (bytes handed to ParseNode that no Get re-hashed) is
// rejected with a typed error instead of decoding into garbage
// references. What names a node from outside the object graph is a ref
// (refs.go): a key, never node bytes kept in a file of the caller's.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/imgenc"
)

// nodeMagic introduces a framed node object.
const nodeMagic = "CAN1"

// NodeFormatError reports a structurally invalid, truncated or
// corrupted node object.
type NodeFormatError struct {
	Msg string
}

func (e *NodeFormatError) Error() string { return "castore: bad node: " + e.Msg }

// Node is a decoded node object.
type Node struct {
	NodeRefs []Key  // children that are themselves nodes
	LeafRefs []Key  // children that are raw chunks
	Payload  []byte // layer-owned bytes (may index LeafRefs)
}

// nodeVersion is the node framing's format version.
const nodeVersion = 1

// BuildNode frames a node object. The returned bytes are what gets
// stored (and hashed into the node's key).
func BuildNode(nodeRefs, leafRefs []Key, payload []byte) []byte {
	b := make([]byte, 0, 4+1+8+KeySize*(len(nodeRefs)+len(leafRefs))+4+len(payload)+4)
	b = append(b, nodeMagic...)
	b = append(b, nodeVersion)
	for _, refs := range [][]Key{nodeRefs, leafRefs} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(refs)))
		for _, k := range refs {
			b = append(b, k[:]...)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return imgenc.Seal(b)
}

// ParseNode decodes a framed node object, verifying magic, version and
// the CRC trailer. The payload aliases data.
func ParseNode(data []byte) (*Node, error) {
	r, err := imgenc.Open(data, nodeMagic, nodeVersion,
		func(_ int, msg string) error { return &NodeFormatError{Msg: msg} },
		func(v byte) error { return &NodeFormatError{Msg: fmt.Sprintf("version %d not supported", v)} })
	if err != nil {
		return nil, err
	}
	n := &Node{}
	n.NodeRefs = readKeys(r, "node ref")
	n.LeafRefs = readKeys(r, "leaf ref")
	n.Payload = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return n, nil
}

// readKeys reads a u32-counted list of keys.
func readKeys(r *imgenc.Reader, what string) []Key {
	keys := make([]Key, r.Count(KeySize, what))
	for i := range keys {
		copy(keys[i][:], r.Take(KeySize))
	}
	return keys
}

// GetNode fetches and parses a node object from a store.
func GetNode(s BlobStore, key Key) (*Node, error) {
	b, err := s.Get(key)
	if err != nil {
		return nil, err
	}
	n, err := ParseNode(b)
	if err != nil {
		return nil, fmt.Errorf("castore: node %s: %w", key, err)
	}
	return n, nil
}

// PutNode frames and stores a node object, returning its key.
func PutNode(s BlobStore, nodeRefs, leafRefs []Key, payload []byte) (Key, error) {
	b := BuildNode(nodeRefs, leafRefs, payload)
	key := KeyOf(b)
	return key, s.Put(key, b)
}
