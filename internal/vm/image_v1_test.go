package vm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/castore"
	"repro/internal/imgenc"
)

// The version-1 forest image and chunk root, as their encoders wrote
// them, kept as oracles: every image and root they produce must keep
// loading, into the forest the current format holds.

// encodeV1 is the version-1 forest encoder: every mapped slot of every
// table listed with its page id (0 for demand-zero), each space record
// carrying a flags byte and an empty dirty-slot section, and the image
// an empty snapshot-link section.
func encodeV1(spaces ...*Space) []byte {
	tableIdx := make(map[*table]int)
	pageIdx := make(map[*page]int)
	var tables []*table
	var pages []*page
	for _, s := range spaces {
		for _, t := range s.root {
			if t == nil {
				continue
			}
			if _, ok := tableIdx[t]; ok {
				continue
			}
			tableIdx[t] = len(tables)
			tables = append(tables, t)
			for pg := range t.pages {
				if _, ok := pageIdx[pg]; !ok {
					pageIdx[pg] = len(pages)
					pages = append(pages, pg)
				}
			}
		}
	}
	le := binary.LittleEndian
	b := append([]byte(imageMagic), 1)
	b = le.AppendUint32(b, uint32(len(pages)))
	for _, pg := range pages {
		b = append(b, pg.data[:]...)
	}
	b = le.AppendUint32(b, uint32(len(tables)))
	for _, t := range tables {
		count := len(b)
		b = append(b, 0, 0)
		n := 0
		for l2, pe := range t.ptes {
			if !pe.mapped() {
				continue
			}
			n++
			b = le.AppendUint16(b, uint16(l2))
			b = append(b, byte(pe.perm))
			pid := 0
			if pe.pg != nil {
				pid = pageIdx[pe.pg] + 1
			}
			b = le.AppendUint32(b, uint32(pid))
		}
		le.PutUint16(b[count:], uint16(n))
	}
	b = le.AppendUint32(b, uint32(len(spaces)))
	for _, s := range spaces {
		b = append(b, 0) // flags
		count := len(b)
		b = append(b, 0, 0)
		n := 0
		for l1, t := range s.root {
			if t != nil {
				n++
				b = le.AppendUint16(b, uint16(l1))
				b = le.AppendUint32(b, uint32(tableIdx[t]+1))
			}
		}
		le.PutUint16(b[count:], uint16(n))
		b = le.AppendUint16(b, 0) // dirty slots
	}
	b = le.AppendUint32(b, 0) // snapshot links
	return imgenc.Seal(b)
}

// chunkV1 is the version-1 chunker over a version-1 flat image: a layout
// chunk of (slot, permission) per mapped slot, and a root whose table
// records carry a page id per slot the layout lists, delta-encoded
// against a version-1 parent as ChunkForest does.
func chunkV1(t testing.TB, store castore.BlobStore, flat []byte, parent castore.Key) castore.Key {
	t.Helper()
	r, err := imgenc.Open(flat, imageMagic, 1,
		func(off int, msg string) error { return &ImageFormatError{Offset: off, Msg: msg} },
		func(v byte) error { return &ImageVersionError{Version: v, Max: 1} })
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	cur := &forestShape{version: 1, pageKeys: make([]castore.Key, r.Count(PageSize, "page"))}
	for i := range cur.pageKeys {
		pg := r.Take(PageSize)
		cur.pageKeys[i] = castore.KeyOf(pg)
		if err := store.Put(cur.pageKeys[i], pg); err != nil {
			t.Fatal(err)
		}
	}
	for range r.Count(2, "table") {
		n := int(r.U16())
		layout := le.AppendUint16(nil, uint16(n))
		pids := make([]uint32, n)
		for j := range pids {
			layout = le.AppendUint16(layout, r.U16())
			layout = append(layout, r.U8())
			pids[j] = r.U32()
		}
		key := castore.KeyOf(layout)
		if err := store.Put(key, layout); err != nil {
			t.Fatal(err)
		}
		cur.tables = append(cur.tables, tableRec{chunk: key, pids: pids})
	}
	cur.tail = r.Take(r.Remaining())
	if r.Err != nil {
		t.Fatal(r.Err)
	}

	// The version-1 table token is the layout key and the page ids.
	tokens := func(s *forestShape) []string {
		out := make([]string, len(s.tables))
		for i, rec := range s.tables {
			b := append([]byte(nil), rec.chunk[:]...)
			for _, pid := range rec.pids {
				b = le.AppendUint32(b, pid)
			}
			out[i] = string(b)
		}
		return out
	}
	pageOps := []chunkOp{{count: len(cur.pageKeys)}}
	tableOps := []chunkOp{{count: len(cur.tables)}}
	var nodeRefs []castore.Key
	if !parent.IsZero() {
		par, err := resolveShape(store, parent, 0)
		if err != nil {
			t.Fatal(err)
		}
		pageOps, _ = deltaOps(pageTokens(cur), pageTokens(par))
		tableOps, _ = deltaOps(tokens(cur), tokens(par))
		cur.depth = par.depth + 1
		nodeRefs = []castore.Key{parent}
	}

	var leafRefs []castore.Key
	for _, op := range pageOps {
		if !op.copy {
			leafRefs = append(leafRefs, cur.pageKeys[op.start:op.start+op.count]...)
		}
	}
	p := append([]byte{1}, le.AppendUint32(nil, cur.depth)...)
	p = append(p, byte(len(nodeRefs)))
	p = le.AppendUint32(p, uint32(len(cur.pageKeys)))
	p = le.AppendUint32(p, uint32(len(pageOps)))
	leaf := 0
	for _, op := range pageOps {
		if op.copy {
			p = append(p, 1)
			p = le.AppendUint32(p, uint32(op.start))
		} else {
			p = append(p, 0)
			p = le.AppendUint32(p, uint32(leaf))
			leaf += op.count
		}
		p = le.AppendUint32(p, uint32(op.count))
	}
	p = le.AppendUint32(p, uint32(len(cur.tables)))
	p = le.AppendUint32(p, uint32(len(tableOps)))
	for _, op := range tableOps {
		if op.copy {
			p = append(p, 1)
			p = le.AppendUint32(p, uint32(op.start))
			p = le.AppendUint32(p, uint32(op.count))
			continue
		}
		p = append(p, 0)
		p = le.AppendUint32(p, uint32(op.count))
		for _, rec := range cur.tables[op.start : op.start+op.count] {
			p = le.AppendUint32(p, uint32(len(leafRefs)))
			leafRefs = append(leafRefs, rec.chunk)
			p = le.AppendUint16(p, uint16(len(rec.pids)))
			for _, pid := range rec.pids {
				p = le.AppendUint32(p, pid)
			}
		}
	}
	p = le.AppendUint32(p, uint32(len(cur.tail)))
	p = append(p, cur.tail...)
	key, err := castore.PutNode(store, nodeRefs, leafRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// randomForest is a parent with history, its snapshot, and a child forked
// from it that then ran a history of its own: writes, Zeros, SetPerms to
// R, RW and None over backed and unbacked slots, and table unmaps, so the
// tables hold runs of every permission and backed slots in and out of
// them.
func randomForest(t *testing.T, rng *rand.Rand) []*Space {
	parent := NewSpace()
	if err := parent.SetPerm(0, propSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	applyOps(t, parent, randOps(rng, 6, propSpan, false))
	snap, _ := parent.Snapshot()
	child, _ := parent.Snapshot()
	applyOps(t, child, randOps(rng, 16, propSpan, true))
	applyOps(t, parent, randOps(rng, 3, propSpan, false))
	return []*Space{child, snap, parent}
}

// mergeOf merges the forest's child into a copy of its parent against the
// snapshot, as a join would.
func mergeOf(spaces []*Space) (MergeStats, bool, uint64) {
	dst, _ := spaces[2].Snapshot()
	defer dst.Free()
	st, err := Merge(dst, spaces[0], spaces[1], 0, mergeSpan)
	return st, err == nil, fingerprint(dst, 0, mergeSpan)
}

// TestForestV1AndV2DecodeAlike: a random forest's version-1 and
// version-2 images decode to one forest — the same bytes, the same
// sharing graph (the current image, which serializes the graph, is
// equal), the same version-1 image back, and the same merge afterwards:
// statistics, outcome and result.
func TestForestV1AndV2DecodeAlike(t *testing.T) {
	for seed := range int64(60) {
		rng := rand.New(rand.NewSource(seed))
		orig := randomForest(t, rng)
		v1, v2 := encodeV1(orig...), reencode(orig)
		if len(v2) >= len(v1) {
			t.Fatalf("seed %d: the version-2 image is %d bytes, the version-1 image %d", seed, len(v2), len(v1))
		}
		wantStats, wantOK, wantSum := mergeOf(orig)
		for name, img := range map[string][]byte{"v1": v1, "v2": v2} {
			spaces, err := DecodeForest(img)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			if got := reencode(spaces); !bytes.Equal(got, v2) {
				t.Fatalf("seed %d: the %s image decodes to a forest whose image differs", seed, name)
			}
			if got := encodeV1(spaces...); !bytes.Equal(got, v1) {
				t.Fatalf("seed %d: the %s image decodes to a forest whose version-1 image differs", seed, name)
			}
			for i := range orig {
				if a, b := fingerprint(orig[i], 0, mergeSpan), fingerprint(spaces[i], 0, mergeSpan); a != b {
					t.Fatalf("seed %d: %s: space %d holds other bytes", seed, name, i)
				}
			}
			if st, ok, sum := mergeOf(spaces); st != wantStats || ok != wantOK || sum != wantSum {
				t.Fatalf("seed %d: %s: merge %+v (ok %v), want %+v (ok %v)", seed, name, st, ok, wantStats, wantOK)
			}
		}
	}
}

// TestV1RootsUnchunkToTheCurrentImage: full and delta version-1 roots, over
// version-1 layouts, unchunk to the current image of their forest, and a
// current root made against a version-1 parent is a full root.
func TestV1RootsUnchunkToTheCurrentImage(t *testing.T) {
	cur, snap := buildPair(t)
	store := castore.NewMemStore()
	full := chunkV1(t, store, encodeV1(cur, snap), castore.Key{})
	if err := cur.WriteU64(5*PageSize, 0xfeed); err != nil {
		t.Fatal(err)
	}
	delta := chunkV1(t, store, encodeV1(cur, snap), full)
	if shape, err := resolveShape(store, delta, 0); err != nil || shape.version != 1 || shape.depth != 1 {
		t.Fatalf("the version-1 delta root resolves to %+v, %v", shape, err)
	}
	back, err := UnchunkForest(store, delta)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodePair(cur, snap); !bytes.Equal(back, want) {
		t.Fatalf("the version-1 root unchunks to %d bytes, not the %d-byte current image", len(back), len(want))
	}
	root, err := ChunkForest(store, back, delta)
	if err != nil {
		t.Fatal(err)
	}
	node, err := castore.GetNode(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(node.NodeRefs) != 0 {
		t.Fatalf("a root over a version-1 parent has %d node refs; want a full root", len(node.NodeRefs))
	}
}
