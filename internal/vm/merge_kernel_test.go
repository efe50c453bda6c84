package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Two oracles pin the merge slow path, neither reached through any
// product-side switch:
//
//   - mergePageBytes, the per-byte reference kernel, run page by page
//     beside mergePageWords by runKernel: destination bytes, every
//     MergeStats field and the conflict address list (order included)
//     must agree bit for bit;
//   - byteRule, the three-way rule itself computed from Space.Read of
//     dst, cur and ref alone — no table walk, no adoption fast path, no
//     cursor — against which the whole engine (MergeEx) is checked.
//
// Scenarios deliberately plant overlapping writes that straddle 8-byte
// word boundaries (where the masked conflict test and the per-byte
// fallback meet) and page edges (where a page's word walk ends), plus a
// fully-rewritten compared page (maximal full-word runs for the copy()
// coalescing path).

// mergePageBytes is the reference merge kernel: compare eight bytes at a
// time, decode every differing word into a per-byte loop. It defines the
// merge semantics the word kernel must reproduce bit-for-bit — bytes,
// statistics and conflict addresses. It lives here, not in merge.go,
// because being compared against is its only job: the tests below and
// BenchmarkMergeKernels call it on a cursor directly.
func mergePageBytes(dc *cursor, pa Addr, l2 int, ce, re pte, de pte, c mergeCtx) {
	st, conflict := c.st, c.conflict
	st.PagesCompared++
	curD, refD, dstD := dataOf(ce.pg), dataOf(re.pg), dataOf(de.pg)
	var wp *page // writable dst page, fetched lazily
	for off := 0; off < PageSize; off += 8 {
		cw := binary.LittleEndian.Uint64(curD[off:])
		rw := binary.LittleEndian.Uint64(refD[off:])
		if cw == rw {
			continue
		}
		dw := binary.LittleEndian.Uint64(dstD[off:])
		for b := 0; b < 8; b++ {
			sh := 8 * b
			cb, rb := byte(cw>>sh), byte(rw>>sh)
			if cb == rb {
				continue
			}
			if byte(dw>>sh) != rb && c.mode == MergeStrict {
				// Parent changed this byte too: write/write conflict.
				if len(conflict.Addrs) < maxReportedConflicts {
					conflict.Addrs = append(conflict.Addrs, pa+Addr(off+b))
				}
				conflict.Total++
				continue
			}
			if wp == nil {
				wp = dc.writablePage(l2, false)
			}
			wp.data[off+b] = cb
			st.BytesMerged++
		}
	}
}

// plantStraddles appends child/parent writes that overlap across an
// 8-byte word boundary inside a page, across a page edge, and over one
// fully-rewritten page the parent also touched (so it is byte-compared,
// not adopted).
func plantStraddles(rng *rand.Rand, childOps, parentOps []memOp) (c, p []memOp) {
	pages := propSpan / PageSize
	// Word-boundary straddle: child [base+5, base+11) vs parent
	// [base+6, base+13) — the overlap crosses the boundary at base+8.
	base := Addr(rng.Intn(pages))*PageSize + Addr(8*(1+rng.Intn(400)))
	childOps = append(childOps, memOp{addr: base + 5, data: randBytes(rng, 6)})
	parentOps = append(parentOps, memOp{addr: base + 6, data: randBytes(rng, 7)})
	// Page-edge straddle: overlapping writes crossing a page boundary.
	edge := Addr(1+rng.Intn(pages-1)) * PageSize
	childOps = append(childOps, memOp{addr: edge - 4, data: randBytes(rng, 9)})
	parentOps = append(parentOps, memOp{addr: edge - 2, data: randBytes(rng, 5)})
	// Fully-rewritten page, kept off the adoption fast path by a one-byte
	// parent write.
	full := Addr(rng.Intn(pages)) * PageSize
	childOps = append(childOps, memOp{addr: full, data: randBytes(rng, PageSize)})
	parentOps = append(parentOps, memOp{addr: full + Addr(rng.Intn(PageSize)), data: randBytes(rng, 1)})
	return childOps, parentOps
}

// pageKernel is the shape mergePageWords and mergePageBytes share.
type pageKernel func(dc *cursor, pa Addr, l2 int, ce, re pte, de pte, c mergeCtx)

// runKernel replays the history like runMerge, then applies kernel to
// every page of [0, propSpan) the child changed — its own page-by-page
// walk, with no adoption of any kind, so two kernels run through it see
// exactly the same (cur, ref, dst) page triples.
func runKernel(t *testing.T, parent *Space, childOps, parentOps []memOp,
	mode MergeMode, kernel pageKernel) mergeOutcome {
	t.Helper()
	return runMergeVia(t, parent, childOps, parentOps, 0, propSpan,
		func(dst, cur, ref *Space) (MergeStats, error) {
			var st MergeStats
			conflict := &MergeConflictError{}
			for l1 := 0; l1 < propSpan/PageSize/tableEntries+1; l1++ {
				dc := cursor{s: dst, l1: l1}
				for l2 := 0; l2 < tableEntries; l2++ {
					pa := Addr(l1*tableEntries+l2) * PageSize
					if pa >= propSpan {
						break
					}
					ce, re := cur.entry(pa), ref.entry(pa)
					if ce.pg == re.pg {
						continue
					}
					kernel(&dc, pa, l2, ce, re, dc.entry(l2), mergeCtx{
						mode: mode, st: &st, conflict: conflict,
					})
				}
			}
			if conflict.Total > 0 {
				return st, conflict
			}
			return st, nil
		})
}

// straddleHistory draws one seeded history with the planted straddles.
func straddleHistory(t *testing.T, seed int64) (parent *Space, childOps, parentOps []memOp) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	parent = NewSpace()
	if err := parent.SetPerm(0, propSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	applyOps(t, parent, randOps(rng, 8, propSpan, false))
	childOps, parentOps = plantStraddles(rng,
		randOps(rng, 8, propSpan, false), randOps(rng, 4, propSpan, false))
	return parent, childOps, parentOps
}

func TestMergeKernelsEquivalentProperty(t *testing.T) {
	f := func(seed int64) bool {
		parent, childOps, parentOps := straddleHistory(t, seed)
		defer parent.Free()
		for _, mode := range []MergeMode{MergeStrict, MergeLastWriter} {
			oracle := runKernel(t, parent, childOps, parentOps, mode, mergePageBytes)
			got := runKernel(t, parent, childOps, parentOps, mode, mergePageWords)
			if diff := outcomesEqual(oracle, got, false); diff != "" {
				t.Errorf("seed %d mode %v: word kernel differs from byte oracle: %s", seed, mode, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// ruleOutcome is what the per-byte three-way rule says a merge must do.
type ruleOutcome struct {
	bytes  []byte // dst's contents over the range after the merge
	merged int    // MergeStats.BytesMerged
	total  int    // conflicting bytes
	addrs  []Addr // the first maxReportedConflicts of them, ascending
}

// byteRule evaluates Deterministic Consistency's merge rule byte by byte
// from what Space.Read returns for the three spaces: a byte the child
// changed since ref goes to dst, unless dst changed it too, which in
// strict mode is a conflict and leaves dst's byte alone.
//
// One fact does not come from Read: BytesMerged counts bytes *copied*, and
// a page dst still shares with ref is adopted by reference rather than
// copied. That page identity is BytesMerged's definition, not part of the
// walk under test, so the oracle looks it up per page.
func byteRule(t *testing.T, dst, cur, ref *Space, mode MergeMode) ruleOutcome {
	t.Helper()
	read := func(s *Space) []byte {
		b := make([]byte, propSpan)
		if err := s.Read(0, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	d, c, r := read(dst), read(cur), read(ref)
	out := ruleOutcome{bytes: d}
	for off := 0; off < propSpan; off += PageSize {
		if bytes.Equal(c[off:off+PageSize], r[off:off+PageSize]) {
			continue
		}
		copied := dst.entry(Addr(off)).pg != ref.entry(Addr(off)).pg
		for i := off; i < off+PageSize; i++ {
			switch {
			case c[i] == r[i]:
			case d[i] != r[i] && mode == MergeStrict:
				if len(out.addrs) < maxReportedConflicts {
					out.addrs = append(out.addrs, Addr(i))
				}
				out.total++
			default:
				d[i] = c[i]
				if copied {
					out.merged++
				}
			}
		}
	}
	return out
}

// checkAgainstByteRule merges the replayed history over [0, propSpan)
// with cfg through MergeEx and fails
// unless destination bytes, BytesMerged, conflict total and reported
// addresses are what byteRule computed from the pre-merge spaces.
func checkAgainstByteRule(t *testing.T, parent *Space, childOps, parentOps []memOp,
	cfg MergeConfig) mergeOutcome {
	t.Helper()
	return runMergeVia(t, parent, childOps, parentOps, 0, propSpan,
		func(dst, cur, ref *Space) (MergeStats, error) {
			want := byteRule(t, dst, cur, ref, cfg.Mode)
			st, err := MergeEx(dst, cur, ref, 0, propSpan, cfg)
			got := make([]byte, propSpan)
			if rerr := dst.Read(0, got); rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(got, want.bytes) {
				t.Errorf("cfg %+v: destination bytes differ from the byte rule", cfg)
			}
			if st.BytesMerged != want.merged {
				t.Errorf("cfg %+v: BytesMerged = %d, byte rule says %d", cfg, st.BytesMerged, want.merged)
			}
			var total int
			var addrs []Addr
			if mc, ok := err.(*MergeConflictError); ok {
				total, addrs = mc.Total, mc.Addrs
			}
			if total != want.total || fmt.Sprint(addrs) != fmt.Sprint(want.addrs) {
				t.Errorf("cfg %+v: conflicts %d %v, byte rule says %d %v",
					cfg, total, addrs, want.total, want.addrs)
			}
			return st, err
		})
}

func TestMergeMatchesByteRuleProperty(t *testing.T) {
	f := func(seed int64) bool {
		parent, childOps, parentOps := straddleHistory(t, seed)
		defer parent.Free()
		for _, mode := range []MergeMode{MergeStrict, MergeLastWriter} {
			checkAgainstByteRule(t, parent, childOps, parentOps, MergeConfig{Mode: mode})
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestMergeKernelStraddledConflicts pins the boundary cases directly: a
// fixed scenario whose strict-mode conflict list contains adjacent
// conflicting bytes on both sides of an 8-byte word boundary and on both
// sides of a page edge. The reference kernel, the word kernel, the byte
// rule and the engine must agree on that list exactly.
func TestMergeKernelStraddledConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parent := NewSpace()
	if err := parent.SetPerm(0, propSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	applyOps(t, parent, randOps(rng, 4, propSpan, false))
	wordBase := Addr(3*PageSize + 64)
	edge := Addr(5 * PageSize)
	// Overlaps are kept small enough that both straddles land inside the
	// maxReportedConflicts-entry address list.
	childOps := []memOp{
		{addr: wordBase + 7, data: randBytes(rng, 2)}, // crosses word boundary at +8
		{addr: edge - 4, data: randBytes(rng, 9)},     // crosses the page edge
	}
	parentOps := []memOp{
		{addr: wordBase + 7, data: randBytes(rng, 2)},
		{addr: edge - 4, data: randBytes(rng, 9)},
	}

	oracle := runKernel(t, parent, childOps, parentOps, MergeStrict, mergePageBytes)
	if oracle.total == 0 {
		t.Fatalf("constructed scenario produced no conflicts: %+v", oracle.st)
	}
	straddlesWord, straddlesEdge := false, false
	for i := 1; i < len(oracle.addrs); i++ {
		a, b := oracle.addrs[i-1], oracle.addrs[i]
		if a+1 == b && b%8 == 0 {
			if b%PageSize == 0 {
				straddlesEdge = true
			} else {
				straddlesWord = true
			}
		}
	}
	if !straddlesWord || !straddlesEdge {
		t.Fatalf("conflict list %v does not straddle a word boundary (%v) and a page edge (%v)",
			oracle.addrs, straddlesWord, straddlesEdge)
	}
	words := runKernel(t, parent, childOps, parentOps, MergeStrict, mergePageWords)
	if diff := outcomesEqual(oracle, words, false); diff != "" {
		t.Errorf("word kernel differs from byte oracle: %s", diff)
	}
	// Every compared page here is one the parent wrote, so nothing is
	// adopted and the engine's outcome equals the bare kernel's but for
	// the scan count.
	got := checkAgainstByteRule(t, parent, childOps, parentOps,
		MergeConfig{Mode: MergeStrict})
	if diff := outcomesEqual(oracle, got, true); diff != "" {
		t.Errorf("engine differs from byte oracle: %s", diff)
	}
}
