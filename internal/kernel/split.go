package kernel

// Splitting machine images for content-addressed storage. A machine
// checkpoint is dominated by its vm forest section (the page payload);
// the config and tree sections are small metadata. The chunked store
// wants those apart: the forest goes through vm.ChunkForest into
// content-addressed chunks, while the metadata travels in the session
// manifest. SplitImage and JoinImage are exact inverses — Join(Split(x))
// is x byte-for-byte — so a checkpoint routed through a store restores
// bit-identically to one restored from the flat image.

import (
	"bytes"
	"encoding/binary"

	"repro/internal/imgenc"
)

// SplitImage separates a machine checkpoint image into a self-sealed
// metadata image (config + tree sections, no forest) and the raw vm
// forest bytes. The input is fully validated — a truncated or corrupt
// image fails with *BadImageError before anything is returned.
func SplitImage(img []byte) (meta, forest []byte, err error) {
	_, _, f, head, err := sections(img, true)
	if err != nil {
		return nil, nil, err
	}
	return imgenc.Seal(bytes.Clone(head)), bytes.Clone(f), nil
}

// JoinImage recombines a metadata image from SplitImage with forest
// bytes into a complete machine checkpoint image. Joining the pieces
// SplitImage produced yields the original image exactly.
func JoinImage(meta, forest []byte) ([]byte, error) {
	_, _, _, head, err := sections(meta, false)
	if err != nil {
		return nil, err
	}
	b := binary.LittleEndian.AppendUint32(bytes.Clone(head), uint32(len(forest)))
	return imgenc.Seal(append(b, forest...)), nil
}
