package detmake

import (
	"math/rand"
	"testing"

	"repro/internal/castore"
)

// Golden results for one fixed graph, captured at the commit before
// fs.Checksum learned to jump demand-zero pages and castore began
// reusing its compressors. Cold-vs-warm agreement only proves the two
// paths agree with each other today; this pins them to the past. A
// deliberate change to the image layout, the cost model or the commit
// order must update these numbers and say why.
//
// wantColdVT was 5278537 while every task stamped its image at fork and
// scrubbed its scratch, every wave formatted an outbox image, and the
// root reconciled each child's image into it before reading the outputs
// back. The outputs are now read from the child's image where the task
// left them, so nobody is charged for that tier. It was 5272297 while
// the root copied each child's image back to a third region, entry by
// entry; it now comes back to the stage region it left from, and a copy
// between equal addresses that covers a whole 4 MiB table is charged as
// one shared table, not 1024 shared pages. It was 2203297 while the
// root formatted and filled each task's image, attached to the one that
// came back and looked the status file and the outputs up in it. The
// root is now charged for writing one input message and reading one
// result message per task; the task is charged for formatting and
// filling its own image and reading its outputs back, and nobody for a
// second and third validating scan and index rebuild or a status file.
// No other constant moved any of the three times.
//
// Both VTs were 518 higher (2186086, 2099580) while every file write
// walked its path once per Mkdir of a parent and then three or four
// times more, and a new inode took nine scalar stores: a write now
// walks once and a new inode is one store, and the root's master writes
// — the same cold and warm — are charged that much less.
// (docs/determinism-rules.md has the ticks per operation.)
//
// Both were 127 higher (2185568, 2099062) while an index rebuild was
// charged its read of the inode table's flag column: the root's master
// image paid one such rebuild, on an empty table. A rebuild now charges
// nothing, so a lookup costs the same on a warm and a cold handle.
//
// Both were 24 higher (2185441, 2098935) while the image's growth was a
// table of chained regions: Format wrote a third word of that table (the
// first region's zero start), and every allocation from the bump cursor
// read the table's count and entry (two ticks) where it now reads the
// image's size (one). The checksum did not move.
func TestGoldenBuild(t *testing.T) {
	cfg, tasks := goldenConfig(t)
	const (
		wantChecksum = 0x29a0116308455876
		wantDigest   = "8dc6b91e2bfae656be0eb53de4a905e8db655b8c644f44774b67e5ebde26b7f5"
		wantColdVT   = 2185417
		wantWarmVT   = 2098911
	)
	cold := buildOrDie(t, cfg)
	warm := buildOrDie(t, cfg)
	if warm.Stats.CacheHits != tasks {
		t.Fatalf("warm build hit %d of %d tasks", warm.Stats.CacheHits, tasks)
	}
	for _, r := range []struct {
		name   string
		res    Result
		wantVT int64
	}{{"cold", cold, wantColdVT}, {"warm", warm, wantWarmVT}} {
		if r.res.Checksum != wantChecksum {
			t.Errorf("%s Checksum = %#x, want %#x", r.name, r.res.Checksum, uint64(wantChecksum))
		}
		if got := r.res.TreeDigest.String(); got != wantDigest {
			t.Errorf("%s TreeDigest = %s, want %s", r.name, got, wantDigest)
		}
		if r.res.VT != r.wantVT {
			t.Errorf("%s VT = %d, want %d", r.name, r.res.VT, r.wantVT)
		}
	}
}

// goldenConfig is the fixed graph TestGoldenBuild pins, over a fresh
// in-memory cache, and its task count.
func goldenConfig(t testing.TB) (Config, int) {
	tasks, sources := randomDAG(rand.New(rand.NewSource(14)), 4, 5)
	return Config{Graph: mustGraph(t, tasks), Sources: sources,
		Store: castore.NewMemStore(), Jobs: 2}, len(tasks)
}
