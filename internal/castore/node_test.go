package castore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/imgenc"
)

// pinnedNodes are BuildNode outputs captured at 5f6bb28, when node.go
// framed CAN1 with its own magic/version/CRC code: routing the framing
// through imgenc.Seal must not move a byte, or every stored root and
// manifest changes key.
var pinnedNodes = []struct {
	nodeRefs, leafRefs []Key
	payload            []byte
	hex                string
}{
	{
		[]Key{KeyOf([]byte("a"))}, []Key{KeyOf([]byte("b")), KeyOf([]byte("c"))}, []byte("payload"),
		"43414e310101000000ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb" +
			"020000003e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d" +
			"2e7d2c03a9507ae265ecf5b5356885a53393a2029d241394997265a1a25aefc6" +
			"070000007061796c6f6164ea24d0a3",
	},
	{nil, nil, nil, "43414e3101000000000000000000000000e9b7e28b"},
}

func TestBuildNodeBytesPinned(t *testing.T) {
	for i, tc := range pinnedNodes {
		got := BuildNode(tc.nodeRefs, tc.leafRefs, tc.payload)
		if hex.EncodeToString(got) != tc.hex {
			t.Errorf("node %d: BuildNode = %x, want %s", i, got, tc.hex)
		}
		n, err := ParseNode(got)
		if err != nil {
			t.Fatalf("node %d: ParseNode: %v", i, err)
		}
		if !bytes.Equal(BuildNode(n.NodeRefs, n.LeafRefs, n.Payload), got) {
			t.Errorf("node %d does not rebuild to itself", i)
		}
	}
}

// FuzzParseNode throws mutated node objects at ParseNode — as given and
// with the CRC trailer recomputed, so the mutation reaches the parser.
// Each either fails with *NodeFormatError or parses into a node that
// rebuilds to exactly the input (the framing has one encoding per
// node); it never panics, and it allocates no more than a small multiple
// of the bytes it was given, whatever its counts claim.
func FuzzParseNode(f *testing.F) {
	for _, tc := range pinnedNodes {
		node := BuildNode(tc.nodeRefs, tc.leafRefs, tc.payload)
		f.Add(node)
		for _, cut := range []int{0, 4, 5, 9, len(node) / 2, len(node) - 5, len(node) - 1} {
			f.Add(node[:cut])
		}
	}
	// A CRC-valid node claiming 4 G node refs.
	f.Add(imgenc.Seal([]byte("CAN1\x01\xff\xff\xff\xff")))

	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, imgenc.Seal(bytes.Clone(data[:len(data)-4])))
		}
		for _, in := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, err := ParseNode(in)
			runtime.ReadMemStats(&after)
			// The parser copies the keys (under len(in) bytes of them) and
			// aliases the payload; the slack is for what the fuzzing
			// worker's own goroutines allocate meanwhile.
			if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*len(in)+64<<10); grew > bound {
				t.Fatalf("parsing %d bytes allocated %d (bound %d)", len(in), grew, bound)
			}
			if err != nil {
				var fe *NodeFormatError
				if !errors.As(err, &fe) {
					t.Fatalf("err = %v (%T), want *NodeFormatError", err, err)
				}
				continue
			}
			if again := BuildNode(n.NodeRefs, n.LeafRefs, n.Payload); !bytes.Equal(again, in) {
				t.Fatalf("a %d-byte node parsed and rebuilt into %d different bytes", len(in), len(again))
			}
		}
	})
}

// writeFileAtomic replaces a file's contents whole, creating its
// directory if need be, leaves no temporary behind on success or
// failure, and gives concurrent writers of one path — two builds
// recording one action into a shared cache directory — a temporary
// each, so the survivor is one writer's bytes, never a blend.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "head")
	for _, want := range []string{"first", "second, longer", ""} {
		if err := writeFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}

	const writers = 8
	contents := make([][]byte, writers)
	var wg sync.WaitGroup
	for i := range contents {
		contents[i] = bytes.Repeat([]byte{byte('a' + i)}, 64<<10)
		wg.Add(1)
		go func(b []byte) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := writeFileAtomic(path, b); err != nil {
					t.Error(err)
				}
			}
		}(contents[i])
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for _, b := range contents {
		whole = whole || bytes.Equal(got, b)
	}
	if !whole {
		t.Fatalf("%d bytes starting %q are no single writer's contents", len(got), got[:1])
	}

	if err := writeFileAtomic(filepath.Join(path, "head"), []byte("x")); err == nil {
		t.Fatal("writing into a directory that is a file succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "head" {
		t.Fatalf("directory holds %d entries (first %q), want only the file", len(ents), ents[0].Name())
	}
	nested := filepath.Join(dir, "made", "on", "demand")
	if err := writeFileAtomic(nested, []byte("x")); err != nil {
		t.Fatalf("writing into a missing directory: %v", err)
	}
	if ents, err = os.ReadDir(filepath.Dir(nested)); err != nil || len(ents) != 1 {
		t.Fatalf("the directory made on demand holds %d entries, %v; want only the file", len(ents), err)
	}
}
