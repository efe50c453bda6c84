package vm

// Chunked forest images: a content-addressed transcoding of the flat
// forest image into a castore object graph.
//
// The flat image (image.go) is the canonical form — it serializes the
// COW identity graph, and DecodeForest is the only restore path. The
// chunked form never re-derives that graph; it is a pure byte-level
// re-encoding: ChunkForest splits a flat image into page chunks, table
// chunks and a root node, and UnchunkForest reassembles the *identical*
// flat bytes. Restoring through a store is therefore bit-identical to
// restoring the flat image by construction, and the property is
// directly testable as round-trip byte equality.
//
// Chunk granularity follows the dedup physics of checkpoints:
//
//   - Page chunks are raw 4 KiB page contents keyed by SHA-256. Pages
//     untouched between checkpoints (or identical across sibling
//     sessions forked from one parent) hash to the same key and are
//     stored once.
//   - Table chunks carry only a table's *layout* — its runs section,
//     which level-2 slots are mapped, with what permissions — and
//     deliberately not its page references. Layout rarely changes
//     between checkpoints, while page references change with every
//     dirtied page; separating them keeps table chunks stable. The
//     backed sections, a (slot, page id) pair per run of pages a table
//     holds, live in the root, where they delta-encode well. Neither
//     grows with the slots a table maps but does not back.
//   - The root is a castore node whose leaf refs are the literal page
//     and table chunk keys, and whose payload rebuilds the image's
//     instance lists. Identical-content but distinct-identity pages
//     appear as repeated keys in per-instance lists — content
//     addressing dedups the bytes while the lists preserve the
//     identity graph the flat format encodes.
//
// Incremental roots: a root may reference its parent root (as a node
// ref, so GC chains stay reachable) and encode its page-key and
// table-record lists as copy/literal ops against the parent's lists. A
// second checkpoint after touching k pages then stores O(k) new chunk
// bytes: k page chunks plus a handful of ops. When little survives
// from the parent, or the chain grows deep, the encoder falls back to
// a self-contained full root.
//
// Version 1 roots gave each table record a page id per slot its layout
// listed, mapped or not, and their layouts listed every mapped slot.
// They keep loading: resolveShape reads their records through one
// branch, and UnchunkForest spells out the version-1 table section from
// them and rewrites it in the current grammar as openForest does. A root
// delta-encodes only against a parent of its own version.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/castore"
	"repro/internal/imgenc"
)

const (
	chunkRootVersion = 2

	// maxChainDepth bounds how long a delta chain may grow before the
	// encoder emits a self-contained root, bounding restore latency and
	// the blast radius of a damaged ancestor.
	maxChainDepth = 16

	// maxResolveDepth is the decoder's hard cap on parent recursion; a
	// cyclic or absurd chain fails typed instead of recursing forever.
	maxResolveDepth = 64

	// fullRootLiteralPct: when at least this percentage of items would
	// be literal anyway, a delta root saves nothing — emit a full root.
	fullRootLiteralPct = 80
)

// tableRec is one table instance in a chunked image: the layout chunk
// it references plus where its pages are.
type tableRec struct {
	chunk  castore.Key
	backed []byte   // the table's backed section, as the flat image holds it
	pids   []uint32 // a version-1 record's: a page id per slot the layout lists
}

// forestShape is a resolved root: the instance lists and trailing
// sections needed to reassemble the flat image.
type forestShape struct {
	version  byte
	depth    uint32
	pageKeys []castore.Key
	tables   []tableRec
	tail     []byte // the flat image's space section, verbatim (version 1: spaces and links)
}

// chunkOp is one run of a delta-encoded instance list: count items
// taken either from the root's own literals or from the parent's list
// starting at start.
type chunkOp struct {
	copy  bool
	start int
	count int
}

func chunkFailf(off int, format string, args ...any) *ImageFormatError {
	return &ImageFormatError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// ChunkForest stores a flat forest image's pages and tables as
// content-addressed chunks and returns the key of the image's root
// node. When parent is the (non-zero) root key of an earlier image in
// the same store, the new root is delta-encoded against it where
// profitable; UnchunkForest of the returned key reproduces flat
// byte-for-byte either way (a version-1 flat image comes back as the
// current image of its forest).
func ChunkForest(store castore.BlobStore, flat []byte, parent castore.Key) (castore.Key, error) {
	img, err := openForest(flat)
	if err != nil {
		return castore.Key{}, err
	}
	pageKeys := make([]castore.Key, len(img.pages))
	for i, pg := range img.pages {
		pageKeys[i] = castore.KeyOf(pg)
		if err := store.Put(pageKeys[i], pg); err != nil {
			return castore.Key{}, err
		}
	}
	// Tables of one machine mostly share a layout (every slot mapped
	// read-write, say): each distinct layout is hashed and Put once.
	tables := make([]tableRec, len(img.tables))
	layouts := make(map[string]castore.Key)
	for i, t := range img.tables {
		key, stored := layouts[string(t.runs)]
		if !stored {
			key = castore.KeyOf(t.runs)
			if err := store.Put(key, t.runs); err != nil {
				return castore.Key{}, err
			}
			layouts[string(t.runs)] = key
		}
		tables[i] = tableRec{chunk: key, backed: t.backed}
	}

	cur := &forestShape{version: chunkRootVersion, pageKeys: pageKeys, tables: tables, tail: img.spaces}

	// Delta against the parent when one is given and enough survives.
	var par *forestShape
	if !parent.IsZero() {
		par, err = resolveShape(store, parent, 0)
		if err != nil {
			return castore.Key{}, err
		}
	}
	pageOps, tableOps, usePar := planOps(cur, par)
	if usePar {
		cur.depth = par.depth + 1
	}

	// Assemble: literal refs in op order, then the payload over them.
	var leafRefs []castore.Key
	for _, op := range pageOps {
		if !op.copy {
			leafRefs = append(leafRefs, cur.pageKeys[op.start:op.start+op.count]...)
		}
	}
	var payload []byte
	payload = append(payload, chunkRootVersion)
	payload = binary.LittleEndian.AppendUint32(payload, cur.depth)
	if usePar {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}

	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(cur.pageKeys)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(pageOps)))
	leaf := 0
	for _, op := range pageOps {
		if op.copy {
			payload = append(payload, 1)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(op.start))
		} else {
			payload = append(payload, 0)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(leaf))
			leaf += op.count
		}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(op.count))
	}

	// A literal record names its layout by leaf ref, one ref per distinct
	// layout.
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(cur.tables)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(tableOps)))
	layoutRef := make(map[castore.Key]int)
	for _, op := range tableOps {
		if op.copy {
			payload = append(payload, 1)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(op.start))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(op.count))
			continue
		}
		payload = append(payload, 0)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(op.count))
		for _, rec := range cur.tables[op.start : op.start+op.count] {
			ref, ok := layoutRef[rec.chunk]
			if !ok {
				ref = len(leafRefs)
				layoutRef[rec.chunk] = ref
				leafRefs = append(leafRefs, rec.chunk)
			}
			payload = binary.LittleEndian.AppendUint32(payload, uint32(ref))
			payload = append(payload, rec.backed...)
		}
	}

	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(cur.tail)))
	payload = append(payload, cur.tail...)

	var nodeRefs []castore.Key
	if usePar {
		nodeRefs = []castore.Key{parent}
	}
	return castore.PutNode(store, nodeRefs, leafRefs, payload)
}

// UnchunkForest reassembles the flat forest image rooted at key,
// fetching (and thereby hash-verifying) every chunk it references. The
// result decodes with DecodeForest exactly as the original flat image
// would; missing chunks surface as *castore.ChunkMissingError,
// damaged ones as *castore.ChunkHashError, and structural nonsense as
// *ImageFormatError. Every section is checked as openForest checks it,
// so what this returns chunks and decodes. A version-1 root comes back
// as the current image of its forest.
func UnchunkForest(store castore.BlobStore, root castore.Key) ([]byte, error) {
	shape, err := resolveShape(store, root, 0)
	if err != nil {
		return nil, err
	}

	// Each distinct key is fetched once: a repeated page or layout is the
	// slice its first fetch verified.
	fetched := make(map[castore.Key][]byte)
	get := func(key castore.Key) ([]byte, error) {
		b, ok := fetched[key]
		if !ok {
			if b, err = store.Get(key); err != nil {
				return nil, err
			}
			fetched[key] = b
		}
		return b, nil
	}
	img := &forestImage{pages: make([][]byte, len(shape.pageKeys))}
	for i, key := range shape.pageKeys {
		pg, err := get(key)
		if err != nil {
			return nil, err
		}
		if len(pg) != PageSize {
			return nil, chunkFailf(0, "page chunk %s is %d bytes, want %d", key, len(pg), PageSize)
		}
		img.pages[i] = pg
	}
	if shape.version == 1 {
		// A version-1 layout lists a (slot, permission) per slot the
		// record has a page id for: the pair spells out the version-1
		// table section, read back as the rest of a version-1 image.
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(shape.tables)))
		for i, rec := range shape.tables {
			layout, err := get(rec.chunk)
			if err != nil {
				return nil, err
			}
			if n := len(rec.pids); len(layout) != 2+3*n || int(binary.LittleEndian.Uint16(layout)) != n {
				return nil, chunkFailf(0, "table %d: chunk %s is %d bytes, root lists %d page ids", i, rec.chunk, len(layout), n)
			}
			b = append(b, layout[:2]...)
			for j, pid := range rec.pids {
				b = append(b, layout[2+3*j:5+3*j]...)
				b = binary.LittleEndian.AppendUint32(b, pid)
			}
		}
		r := &imgenc.Reader{B: append(b, shape.tail...), Wrap: func(off int, msg string) error {
			return chunkFailf(off, "version-1 tables and spaces: %s", msg)
		}}
		img.readV1(r)
		if err := r.Done(); err != nil {
			return nil, err
		}
		return img.seal(), nil
	}

	img.tables = make([]tableImage, len(shape.tables))
	for i, rec := range shape.tables {
		runs, err := get(rec.chunk)
		if err != nil {
			return nil, err
		}
		if len(runs) < 2 || len(runs) != 2+runSize*int(binary.LittleEndian.Uint16(runs)) {
			return nil, chunkFailf(0, "table chunk %s is %d bytes, not a runs section", rec.chunk, len(runs))
		}
		img.tables[i] = tableImage{runs: runs, backed: rec.backed}
		if err := img.tables[i].check(len(img.pages)); err != nil {
			return nil, chunkFailf(0, "table %d: %v", i, err)
		}
	}
	img.spaces = shape.tail
	r := &imgenc.Reader{B: shape.tail, Wrap: func(off int, msg string) error {
		return chunkFailf(off, "space section: %s", msg)
	}}
	readSpaces(r, len(img.tables))
	if err := r.Done(); err != nil {
		return nil, err
	}
	return img.seal(), nil
}

// resolveShape parses a root node and materializes its instance lists,
// recursing through the parent chain to satisfy copy ops.
func resolveShape(store castore.BlobStore, key castore.Key, depth int) (*forestShape, error) {
	if depth > maxResolveDepth {
		return nil, chunkFailf(0, "root parent chain deeper than %d", maxResolveDepth)
	}
	node, err := castore.GetNode(store, key)
	if err != nil {
		return nil, err
	}
	r := &imgenc.Reader{B: node.Payload, Wrap: func(off int, msg string) error {
		return &ImageFormatError{Offset: off, Msg: "root " + key.String()[:12] + ": " + msg}
	}}

	v := r.U8()
	if r.Err == nil && (v == 0 || v > chunkRootVersion) {
		return nil, &ImageVersionError{Version: v, Max: chunkRootVersion}
	}
	shape := &forestShape{version: v, depth: r.U32()}
	hasParent := r.U8() != 0

	var par *forestShape
	if hasParent {
		if len(node.NodeRefs) == 0 {
			return nil, chunkFailf(r.Off, "delta root without parent node ref")
		}
		par, err = resolveShape(store, node.NodeRefs[0], depth+1)
		if err != nil {
			return nil, err
		}
		if par.version != shape.version {
			return nil, chunkFailf(r.Off, "version %d root over a version %d parent", shape.version, par.version)
		}
	}

	// The instance lists grow by what the ops list — ranges of leaf refs
	// and of the parent's lists that exist — and are never sized by the
	// header's totals, which they must add up to.
	nPages := int(r.U32())
	nOps := r.Count(9, "page op") // kind, start, count
	for i := 0; i < nOps && r.Err == nil; i++ {
		kind := r.U8()
		start := int(r.U32())
		count := int(r.U32())
		if r.Err != nil {
			break
		}
		src := node.LeafRefs // kind 0: a literal range of this root's refs
		switch {
		case kind == 1 && par != nil:
			src = par.pageKeys
		case kind == 1:
			r.Failf("page copy op in root without parent")
		case kind != 0:
			r.Failf("unknown page op kind %d", kind)
		}
		if r.Err != nil {
			break
		}
		if start < 0 || count < 0 || start+count > len(src) || len(shape.pageKeys)+count > nPages {
			r.Failf("page op %d [%d,+%d) outside its %d source keys or the header's %d pages", kind, start, count, len(src), nPages)
			break
		}
		shape.pageKeys = append(shape.pageKeys, src[start:start+count]...)
	}
	if r.Err == nil && len(shape.pageKeys) != nPages {
		r.Failf("page ops produced %d pages, header says %d", len(shape.pageKeys), nPages)
	}

	nTables := int(r.U32())
	nOps = r.Count(5, "table op") // kind and a count at least
	for i := 0; i < nOps && r.Err == nil; i++ {
		switch kind := r.U8(); kind {
		case 0:
			count := r.Count(6, "table literal") // leaf ref, backed-slot or page-id count
			shape.tables = slices.Grow(shape.tables, count)
			for j := 0; j < count && r.Err == nil; j++ {
				leafIdx := int(r.U32())
				var rec tableRec
				if shape.version == 1 {
					rec.pids = make([]uint32, r.Count16(4, "page id"))
					for k := range rec.pids {
						rec.pids[k] = r.U32()
					}
				} else {
					rec.backed = take16(r, backedSize, "backed run")
				}
				if r.Err != nil {
					break
				}
				if leafIdx < 0 || leafIdx >= len(node.LeafRefs) {
					r.Failf("table leaf ref %d outside %d leaf refs", leafIdx, len(node.LeafRefs))
					break
				}
				rec.chunk = node.LeafRefs[leafIdx]
				shape.tables = append(shape.tables, rec)
			}
		case 1:
			start := int(r.U32())
			count := int(r.U32())
			if r.Err != nil {
				break
			}
			if par == nil {
				r.Failf("table copy op in root without parent")
				break
			}
			if start < 0 || count < 0 || start+count > len(par.tables) || len(shape.tables)+count > nTables {
				r.Failf("table copy op [%d,+%d) outside parent's %d tables or the header's %d", start, count, len(par.tables), nTables)
				break
			}
			shape.tables = append(shape.tables, par.tables[start:start+count]...)
		default:
			r.Failf("unknown table op kind %d", kind)
		}
	}
	if r.Err == nil && len(shape.tables) != nTables {
		r.Failf("table ops produced %d tables, header says %d", len(shape.tables), nTables)
	}

	shape.tail = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return shape, nil
}

// planOps delta-encodes cur's instance lists against par, falling back
// to a self-contained full root (usePar=false, all-literal ops) when
// there is no parent, the parent is of another version, the chain is
// deep, or too little survives.
func planOps(cur, par *forestShape) (pageOps, tableOps []chunkOp, usePar bool) {
	fullPages := []chunkOp{{start: 0, count: len(cur.pageKeys)}}
	fullTables := []chunkOp{{start: 0, count: len(cur.tables)}}
	if len(cur.pageKeys) == 0 {
		fullPages = nil
	}
	if len(cur.tables) == 0 {
		fullTables = nil
	}
	if par == nil || par.version != cur.version || par.depth+1 >= maxChainDepth {
		return fullPages, fullTables, false
	}
	pageOps, pageLit := deltaOps(pageTokens(cur), pageTokens(par))
	tableOps, tableLit := deltaOps(tableTokens(cur), tableTokens(par))
	total := len(cur.pageKeys) + len(cur.tables)
	if total > 0 && (pageLit+tableLit)*100 >= total*fullRootLiteralPct {
		return fullPages, fullTables, false
	}
	return pageOps, tableOps, true
}

// pageTokens serializes a shape's page instances for delta matching.
func pageTokens(s *forestShape) []string {
	out := make([]string, len(s.pageKeys))
	for i, k := range s.pageKeys {
		out[i] = string(k[:])
	}
	return out
}

// tableTokens serializes a shape's table records (layout chunk plus
// backed section — both must match for a parent record to be reused).
func tableTokens(s *forestShape) []string {
	out := make([]string, len(s.tables))
	for i, rec := range s.tables {
		out[i] = string(rec.chunk[:]) + string(rec.backed)
	}
	return out
}

// deltaOps matches cur against parent and coalesces the result into
// copy/literal runs. Literal ops use start = index into cur (the
// encoder turns those into leaf-ref ranges or inline records).
func deltaOps(cur, parent []string) (ops []chunkOp, literals int) {
	pos := make(map[string][]int, len(parent))
	for j, tok := range parent {
		pos[tok] = append(pos[tok], j)
	}
	// match[i] = parent index reused for cur[i], or -1 for a literal.
	// Prefer continuing the previous run so shifted-but-contiguous
	// regions coalesce into single copy ops.
	match := make([]int, len(cur))
	next := 0
	for i, tok := range cur {
		ps := pos[tok]
		if len(ps) == 0 {
			match[i] = -1
			continue
		}
		m := ps[0]
		for _, p := range ps {
			if p >= next {
				m = p
				break
			}
		}
		match[i] = m
		next = m + 1
	}
	for i := 0; i < len(cur); {
		j := i
		if match[i] < 0 {
			for j < len(cur) && match[j] < 0 {
				j++
			}
			ops = append(ops, chunkOp{start: i, count: j - i})
			literals += j - i
		} else {
			for j < len(cur) && match[j] == match[i]+(j-i) {
				j++
			}
			ops = append(ops, chunkOp{copy: true, start: match[i], count: j - i})
		}
		i = j
	}
	return ops, literals
}
