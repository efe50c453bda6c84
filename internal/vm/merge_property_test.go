package vm

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property test for the merge engine: its occupancy walk and slotMerge,
// the merge rule applied to every slot, over the same (dst, cur, ref)
// triple must produce byte-identical destination spaces, identical
// semantic MergeStats — tables adopted included — and identical conflict
// address lists, in both conflict modes, across randomized histories on
// both sides of the fork: writes, and on the child's side the operations
// that change a mapping rather than bytes. The engine's PtesScanned must
// be the slots either side backs in the tables it walks (slotsBacked),
// counted here slot by slot, not from the occupancy maps.

// propSpan is what the parent maps: two whole level-2 tables plus a
// partial third, so the walk exercises whole-table adoption,
// partial-table clamping, and a multi-table walk in one scenario.
const propSpan = 2*(tableEntries*PageSize) + 64*PageSize

// mergeSpan is propSpan and the rest of its third table, which the
// parent leaves unmapped: a child mapping there meets an unmapped
// snapshot slot in a table a merge may adopt whole.
const mergeSpan = 3 * tableEntries * PageSize

// memKind is what a memOp does.
type memKind uint8

const (
	memWrite memKind = iota // write data at addr
	memZero                 // Zero the page at addr, mapping it with perm
	memPerm                 // SetPerm the page at addr to perm
	memUnmap                // unmap the whole level-2 table holding addr
)

// memOp is one recorded mutation, replayable onto identical space copies.
type memOp struct {
	kind memKind
	addr Addr
	data []byte // memWrite's bytes
	perm Perm   // memZero's and memPerm's permission
}

// applyOps replays ops onto s, checking every table's bitmaps against its
// ptes after each. A write to a page a SetPerm closed, or one no op
// mapped, faults as a program's store would, and leaves the same bytes on
// every replay; any other failure fails t.
func applyOps(t *testing.T, s *Space, ops []memOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		pa := op.addr &^ pageMask
		switch op.kind {
		case memWrite:
			var fault *AccessError
			if err = s.Write(op.addr, op.data); errors.As(err, &fault) {
				err = nil
			}
		case memZero:
			err = s.Zero(pa, PageSize, op.perm)
		case memPerm:
			err = s.SetPerm(pa, PageSize, op.perm)
		case memUnmap:
			ta := op.addr &^ Addr(TableSpan-1)
			_, err = s.CopyFrom(NewSpace(), ta, ta, TableSpan)
		}
		if err != nil {
			t.Fatalf("op %d at %#x (%d bytes, perm %v): %v", op.kind, op.addr, len(op.data), op.perm, err)
		}
		checkBitmaps(t, s)
	}
}

// randOps draws n mutations: writes of up to three pages below span and,
// one in eight, the Zero of a page below span. With remaps it also draws
// the operations that change a mapping rather than bytes: the SetPerm of
// a page below mergeSpan to R, RW or None; the Zero of a page past the
// parent's mapped span (propSpan), half the time written after; and,
// rarely, the unmap of a whole table.
func randOps(rng *rand.Rand, n int, span int64, remaps bool) []memOp {
	ops := make([]memOp, 0, n)
	for i := 0; i < n; i++ {
		if remaps {
			switch rng.Intn(16) {
			case 0, 1:
				perm := []Perm{PermR, PermRW, PermNone}[rng.Intn(3)]
				ops = append(ops, memOp{kind: memPerm, addr: Addr(rng.Int63n(mergeSpan)), perm: perm})
				continue
			case 2, 3:
				pa := Addr(propSpan+rng.Int63n(mergeSpan-propSpan)) &^ pageMask
				ops = append(ops, memOp{kind: memZero, addr: pa, perm: PermRW})
				if rng.Intn(2) == 0 {
					ops = append(ops, memOp{addr: pa + Addr(rng.Intn(PageSize-64)), data: randBytes(rng, 64)})
				}
				continue
			case 4:
				ops = append(ops, memOp{kind: memUnmap, addr: Addr(rng.Int63n(mergeSpan))})
				continue
			}
		}
		if rng.Intn(8) == 0 {
			ops = append(ops, memOp{kind: memZero, addr: Addr(rng.Int63n(span)), perm: PermRW})
			continue
		}
		data := make([]byte, rng.Intn(3*PageSize)+1)
		rng.Read(data)
		addr := Addr(rng.Int63n(span - int64(len(data))))
		ops = append(ops, memOp{addr: addr, data: data})
	}
	return ops
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// fnvPrime is FNV-1a's 64-bit multiplier, and fnvZeroPage what mixing a
// page of zero bytes multiplies the hash by: XOR with a zero byte leaves
// it alone, so the page is PageSize multiplications.
const fnvPrime = 1099511628211

var fnvZeroPage = func() uint64 {
	m := uint64(1)
	for range PageSize {
		m *= fnvPrime
	}
	return m
}()

// fingerprint hashes the observable state of every page in the range:
// permission plus backing bytes (FNV-1a), independent of COW structure.
// A page with no backing hashes as the zeros it reads as, in one step.
func fingerprint(s *Space, addr Addr, size uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime
	}
	for off := uint64(0); off < size; off += PageSize {
		e := s.entry(addr + Addr(off))
		mix(byte(e.perm))
		if e.pg == nil {
			h *= fnvZeroPage
			continue
		}
		for _, b := range &e.pg.data {
			mix(b)
		}
	}
	return h
}

// mergeOutcome captures everything observable about one merge execution.
type mergeOutcome struct {
	st    MergeStats
	print uint64
	err   string
	total int
	addrs []Addr
}

// runMerge replays the history onto fresh copies of parent and merges
// through MergeEx, failing t unless its PtesScanned is slotsBacked;
// runMergeSlots merges through slotMerge instead.
func runMerge(t *testing.T, parent *Space, childOps, parentOps []memOp,
	addr Addr, size uint64, cfg MergeConfig) mergeOutcome {
	t.Helper()
	return runMergeVia(t, parent, childOps, parentOps, addr, size,
		func(dst, cur, ref *Space) (MergeStats, error) {
			st, err := MergeEx(dst, cur, ref, addr, size, cfg)
			if want := slotsBacked(cur, ref, addr, size); st.PtesScanned != want {
				t.Errorf("merge over %#x+%#x scanned %d ptes, the walked tables back %d slots",
					addr, size, st.PtesScanned, want)
			}
			return st, err
		})
}

func runMergeSlots(t *testing.T, parent *Space, childOps, parentOps []memOp,
	addr Addr, size uint64, cfg MergeConfig) mergeOutcome {
	t.Helper()
	return runMergeVia(t, parent, childOps, parentOps, addr, size,
		func(dst, cur, ref *Space) (MergeStats, error) {
			return slotMerge(dst, cur, ref, addr, size, cfg)
		})
}

// slotRange is the slice [lo, hi) of table l1's slots that the range
// [addr, end) covers.
func slotRange(l1 int, addr Addr, end uint64) (lo, hi int) {
	base := uint64(l1) << l1Shift
	lo, hi = 0, tableEntries
	if base < uint64(addr) {
		lo = int((uint64(addr) - base) >> l2Shift)
	}
	if base+(tableEntries<<l2Shift) > end {
		hi = int((end - base) >> l2Shift)
	}
	return lo, hi
}

// entryOf is slot l2 of t, or no entry for no table.
func entryOf(t *table, l2 int) pte {
	if t == nil {
		return pte{}
	}
	return t.ptes[l2]
}

// slotsBacked counts, slot by slot, the slots in range that cur or ref
// backs with a page, over the tables a merge walks: those cur has and no
// longer shares with ref.
func slotsBacked(cur, ref *Space, addr Addr, size uint64) int {
	n, end := 0, uint64(addr)+size
	for l1 := int(addr >> l1Shift); uint64(l1)<<l1Shift < end; l1++ {
		ct, rt := cur.root[l1], ref.root[l1]
		if ct == nil || ct == rt {
			continue
		}
		lo, hi := slotRange(l1, addr, end)
		for l2 := lo; l2 < hi; l2++ {
			if ct.ptes[l2].pg != nil || entryOf(rt, l2).pg != nil {
				n++
			}
		}
	}
	return n
}

// slotMerge is the merge rule applied to every slot in range of each
// table cur no longer shares with ref, one at a time, with no occupancy
// map and no adoption shortcut: a slot moves only where cur maps it with
// a page other than ref's, through the per-page path. It counts a table
// as adopted where the engine may adopt one — the parent still shared
// ref's table and the whole table was merged — and the rule's result is
// cur's table, compared entry by entry: no slot's page, mapping or
// permission differs, so taking cur's table whole is the same merge. It
// is the reference the engine must match on everything but PtesScanned.
func slotMerge(dst, cur, ref *Space, addr Addr, size uint64, cfg MergeConfig) (MergeStats, error) {
	var st MergeStats
	if err := rangeCheck(addr, size); err != nil {
		return st, err
	}
	conflict, end := &MergeConflictError{}, uint64(addr)+size
	for l1 := int(addr >> l1Shift); uint64(l1)<<l1Shift < end; l1++ {
		ct, rt := cur.root[l1], ref.root[l1]
		if ct == nil || ct == rt {
			continue
		}
		lo, hi := slotRange(l1, addr, end)
		whole := dst.root[l1] == rt && lo == 0 && hi == tableEntries
		c := mergeCtx{mode: cfg.Mode, st: &st, conflict: conflict}
		dc := cursor{s: dst, l1: l1}
		for l2 := lo; l2 < hi; l2++ {
			st.PtesScanned++
			if ce, re := ct.ptes[l2], entryOf(rt, l2); ce.pg != re.pg && ce.mapped() {
				mergePage(&dc, Addr(l1)<<l1Shift|Addr(l2)<<l2Shift, l2, ce, re, c)
			}
		}
		if whole && sameEntries(dst.root[l1], ct) {
			st.TablesAdopted++
		}
	}
	if conflict.Total > 0 {
		return st, conflict
	}
	return st, nil
}

// keepsSnapshotSlots is keepsSnapshot read off the ptes, slot by slot,
// as the engine decided adoption before tables carried permission
// bitmaps: ct maps every slot rt maps, with rt's permission, and maps no
// slot rt leaves unmapped without a page. A nil rt maps nothing. It is
// the oracle TestKeepsSnapshotMatchesSlotWalk holds the mask tests to.
func keepsSnapshotSlots(ct, rt *table) bool {
	var re pte
	for l2, ce := range &ct.ptes {
		if rt != nil {
			re = rt.ptes[l2]
		}
		if re.mapped() {
			if ce.perm != re.perm || !ce.mapped() {
				return false
			}
		} else if ce.pg == nil && ce.mapped() {
			return false
		}
	}
	return true
}

// randSlot draws one slot's entry: unmapped, `--` with a page, or r-, -w
// or rw with or without one; pg is the page it gets when backed.
func randSlot(rng *rand.Rand, pg *page) pte {
	switch rng.Intn(8) {
	case 0:
		return pte{}
	case 1:
		return pte{pg: pg}
	}
	e := pte{perm: []Perm{PermR, PermW, PermRW}[rng.Intn(3)]}
	if rng.Intn(2) == 0 {
		e.pg = pg
	}
	return e
}

// TestKeepsSnapshotMatchesSlotWalk draws snapshot tables (one in eight
// nil) of random slots and child tables derived from them as a child's
// history would leave them: every slot copied, a backed slot's page
// shared or replaced, then up to three slots redrawn, a snapshot slot
// half the time. keepsSnapshot must answer as keepsSnapshotSlots does,
// and the draws must reach both answers.
func TestKeepsSnapshotMatchesSlotWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	pages := []*page{new(page), new(page), new(page), new(page)}
	pick := func() *page { return pages[rng.Intn(len(pages))] }
	answers := map[bool]int{}
	ct, snap := new(table), new(table)
	for it := range 2000 {
		clearTable(snap)
		var rt *table
		var slots []int // the slots the snapshot sets
		if rng.Intn(8) != 0 {
			rt = snap
			for range rng.Intn(40) {
				l2 := rng.Intn(tableEntries)
				rt.set(l2, randSlot(rng, pick()))
				slots = append(slots, l2)
			}
		}
		ct.ptes, ct.occ, ct.rd, ct.wr = snap.ptes, snap.occ, snap.rd, snap.wr
		for w, word := range ct.occ {
			for ; word != 0; word &= word - 1 {
				if l2 := w<<6 | bits.TrailingZeros64(word); rng.Intn(4) == 0 {
					ct.set(l2, pte{pg: pick(), perm: ct.ptes[l2].perm})
				}
			}
		}
		for range rng.Intn(4) {
			l2 := rng.Intn(tableEntries)
			if len(slots) > 0 && rng.Intn(2) == 0 {
				l2 = slots[rng.Intn(len(slots))]
			}
			ct.set(l2, randSlot(rng, pick()))
		}
		want := keepsSnapshotSlots(ct, rt)
		if got := keepsSnapshot(ct, rt); got != want {
			t.Fatalf("draw %d (snapshot nil %v): keepsSnapshot %v, slot walk %v", it, rt == nil, got, want)
		}
		answers[want]++
	}
	if answers[true] < 200 || answers[false] < 200 {
		t.Fatalf("the draws reached keep %d times and refuse %d times: too few of one to test it", answers[true], answers[false])
	}
}

// sameEntries reports whether a and b (nil: no entries) hold the same
// entry in every slot.
func sameEntries(a, b *table) bool {
	for l2 := range tableEntries {
		if entryOf(a, l2) != entryOf(b, l2) {
			return false
		}
	}
	return true
}

func runMergeVia(t *testing.T, parent *Space, childOps, parentOps []memOp,
	addr Addr, size uint64, merge func(dst, cur, ref *Space) (MergeStats, error)) mergeOutcome {
	t.Helper()
	child := NewSpace()
	child.CopyAllFrom(parent)
	snap, _ := child.Snapshot()
	applyOps(t, child, childOps)

	dst := NewSpace()
	dst.CopyAllFrom(parent)
	applyOps(t, dst, parentOps)

	st, err := merge(dst, child, snap)
	checkBitmaps(t, dst)
	out := mergeOutcome{st: st, print: fingerprint(dst, addr, size)}
	if err != nil {
		out.err = err.Error()
		mc, ok := err.(*MergeConflictError)
		if !ok {
			t.Fatalf("merge: unexpected error type %T: %v", err, err)
		}
		out.total = mc.Total
		out.addrs = append(out.addrs, mc.Addrs...)
	}
	child.Free()
	snap.Free()
	dst.Free()
	return out
}

func outcomesEqual(a, b mergeOutcome, ignoreScanned bool) string {
	sa, sb := a.st, b.st
	if ignoreScanned {
		sa.PtesScanned, sb.PtesScanned = 0, 0
	}
	switch {
	case sa != sb:
		return fmt.Sprintf("stats %+v vs %+v", a.st, b.st)
	case a.print != b.print:
		return fmt.Sprintf("destination bytes differ (%#x vs %#x)", a.print, b.print)
	case a.err != b.err:
		return fmt.Sprintf("errors %q vs %q", a.err, b.err)
	case a.total != b.total:
		return fmt.Sprintf("conflict totals %d vs %d", a.total, b.total)
	case fmt.Sprint(a.addrs) != fmt.Sprint(b.addrs):
		return fmt.Sprintf("conflict addrs %v vs %v", a.addrs, b.addrs)
	}
	return ""
}

func TestMergeEnginesEquivalentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewSpace()
		if err := parent.SetPerm(0, propSpan, PermRW); err != nil {
			t.Fatal(err)
		}
		applyOps(t, parent, randOps(rng, 10, propSpan, false))
		// Child mutations roam the whole span, remap it and the unmapped
		// rest of the third table, and always include a write in the
		// second table; parent mutations stay inside the first table, so
		// the second and third are whole-table adoption candidates.
		childOps := randOps(rng, 16, propSpan, true)
		childOps = append(childOps, memOp{
			addr: Addr(tableEntries+rng.Intn(tableEntries)) * PageSize,
			data: randBytes(rng, 64),
		})
		parentOps := randOps(rng, 4, tableEntries*PageSize, false)
		if rng.Intn(2) == 0 {
			// Contended page: both sides write overlapping random bytes —
			// a guaranteed byte comparison, near-certain conflict.
			pg := Addr(rng.Intn(tableEntries)) * PageSize
			childOps = append(childOps, memOp{addr: pg, data: randBytes(rng, 64)})
			parentOps = append(parentOps, memOp{addr: pg + 32, data: randBytes(rng, 64)})
		}

		// Whole span or a random page-aligned sub-range.
		addr, size := Addr(0), uint64(mergeSpan)
		if rng.Intn(2) == 0 {
			addr = Addr(rng.Int63n(mergeSpan/PageSize)) * PageSize
			size = uint64(rng.Int63n((mergeSpan-int64(addr))/PageSize)+1) * PageSize
		}

		for _, mode := range []MergeMode{MergeStrict, MergeLastWriter} {
			got := runMerge(t, parent, childOps, parentOps, addr, size,
				MergeConfig{Mode: mode})
			slots := runMergeSlots(t, parent, childOps, parentOps, addr, size,
				MergeConfig{Mode: mode})
			if diff := outcomesEqual(got, slots, true); diff != "" {
				t.Errorf("seed %d mode %v: slot walk differs from the engine: %s", seed, mode, diff)
				return false
			}
			if t.Failed() {
				return false
			}
		}
		parent.Free()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// maxRuleOps bounds FuzzMergeRule's script: four bytes an op.
const maxRuleOps = 16

// ruleOp encodes one op of FuzzMergeRule's script: kind, the page it
// acts on, and its argument.
func ruleOp(kind memKind, page int, arg byte) []byte {
	return []byte{byte(kind), byte(page >> 8), byte(page), arg}
}

// decodeRuleScript reads up to maxRuleOps child ops from script, four
// bytes each: a kind (write, Zero, SetPerm or unmap, mod 4), a page
// below mergeSpan (big-endian, mod its page count), and an argument — a
// write's byte value and its offset in sixteens, a Zero's or SetPerm's
// permission (None, R, RW or W, mod 4), nothing for an unmap.
func decodeRuleScript(script []byte) []memOp {
	var ops []memOp
	for i := 0; i+4 <= len(script) && len(ops) < maxRuleOps; i += 4 {
		b := script[i : i+4]
		pa := Addr((int(b[1])<<8|int(b[2]))%(mergeSpan/PageSize)) * PageSize
		op := memOp{kind: memKind(b[0] % 4), addr: pa, perm: []Perm{PermNone, PermR, PermRW, PermW}[b[3]%4]}
		if op.kind == memWrite {
			op.addr += Addr(b[3]) * 16
			op.data = bytes.Repeat([]byte{b[3] | 1}, 8)
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzMergeRule holds MergeEx to the per-slot rule (slotMerge) on child
// histories the fuzzer writes (decodeRuleScript), against a parent that
// maps propSpan and backs four pages of each table. The low three bits of
// touched name the tables the parent writes after the fork; first and
// count pick the merge range in pages. The first seeds are the
// unbacked-mapping case, a SetPerm or a Zero of a page the snapshot does
// not map beside a write elsewhere in its table, into an untouched parent
// and into one that wrote that table. Then one seed per test of
// keepsSnapshot, each a child history only that test refuses to adopt,
// merged whole into an untouched parent, and one the engine must adopt.
func FuzzMergeRule(f *testing.F) {
	const pages = mergeSpan / PageSize
	unbacked := 2*tableEntries + 100 // in the third table, past propSpan
	for _, remap := range []memKind{memPerm, memZero} {
		script := append(ruleOp(remap, unbacked, 2), ruleOp(memWrite, 2*tableEntries+3, 7)...)
		f.Add(script, uint8(0), uint16(0), uint16(pages-1))
		f.Add(script, uint8(4), uint16(0), uint16(pages-1))
	}
	backed := tableEntries + 1 // in the second table, backed by the parent
	for _, script := range [][]byte{
		// Unmaps the second table, then maps one of its slots again: the
		// snapshot maps 1023 slots the child does not.
		append(ruleOp(memUnmap, backed, 0), ruleOp(memZero, backed+4, 2)...),
		ruleOp(memPerm, backed, 3),   // rw to -w: the read permission differs
		ruleOp(memPerm, backed, 1),   // rw to r-: the write permission differs
		ruleOp(memPerm, unbacked, 1), // maps a slot past the snapshot, unbacked
		// Only writes, in the second and third tables: both are adopted.
		append(ruleOp(memWrite, backed+6, 9), ruleOp(memWrite, 2*tableEntries+5, 5)...),
	} {
		f.Add(script, uint8(0), uint16(0), uint16(pages-1))
	}
	f.Fuzz(func(t *testing.T, script []byte, touched uint8, first, count uint16) {
		parent := NewSpace()
		if err := parent.SetPerm(0, propSpan, PermRW); err != nil {
			t.Fatal(err)
		}
		var parentOps []memOp
		for l1 := range 3 {
			for p := range 4 {
				if err := parent.WriteU32(Addr(l1*tableEntries+p)*PageSize, uint32(l1<<8|p+1)); err != nil {
					t.Fatal(err)
				}
			}
			if touched>>l1&1 != 0 {
				parentOps = append(parentOps, memOp{addr: Addr(l1*tableEntries+2)*PageSize + 40, data: []byte{0xd0}})
			}
		}
		childOps := decodeRuleScript(script)
		lo := int(first) % pages
		addr := Addr(lo) * PageSize
		size := uint64(1+int(count)%(pages-lo)) * PageSize
		for _, mode := range []MergeMode{MergeStrict, MergeLastWriter} {
			cfg := MergeConfig{Mode: mode}
			got := runMerge(t, parent, childOps, parentOps, addr, size, cfg)
			want := runMergeSlots(t, parent, childOps, parentOps, addr, size, cfg)
			if diff := outcomesEqual(got, want, true); diff != "" {
				t.Fatalf("mode %v over %#x+%#x: the engine differs from the slot rule: %s", mode, addr, size, diff)
			}
		}
		parent.Free()
	})
}

// TestMergeEnginesEquivalentOnContention pins the hard cases the random
// scenarios only sometimes draw: a guaranteed write/write conflict, a
// byte-compared false-sharing page, and a whole-table adoption, all in one
// merge — and requires the engine and the slot walk to agree on them.
func TestMergeEnginesEquivalentOnContention(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parent := NewSpace()
	if err := parent.SetPerm(0, propSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	applyOps(t, parent, randOps(rng, 10, propSpan, false))
	childOps := []memOp{
		{addr: 3 * PageSize, data: randBytes(rng, 64)},                    // contended page
		{addr: (tableEntries + 7) * PageSize, data: randBytes(rng, 1000)}, // table-1 adoption
	}
	parentOps := []memOp{
		{addr: 3*PageSize + 32, data: randBytes(rng, 64)}, // overlaps child's write
	}
	serial := runMerge(t, parent, childOps, parentOps, 0, propSpan, MergeConfig{})
	if serial.total == 0 || serial.st.PagesCompared == 0 || serial.st.TablesAdopted == 0 {
		t.Fatalf("constructed scenario missed a path: %+v (conflicts %d)", serial.st, serial.total)
	}
	for _, mode := range []MergeMode{MergeStrict, MergeLastWriter} {
		cfg := MergeConfig{Mode: mode}
		base := runMerge(t, parent, childOps, parentOps, 0, propSpan, cfg)
		got := runMergeSlots(t, parent, childOps, parentOps, 0, propSpan, cfg)
		if diff := outcomesEqual(base, got, true); diff != "" {
			t.Errorf("mode %v slot walk: %s", mode, diff)
		}
	}
}

// TestMergeMutatedRefNeverGuides: a reference snapshot that was written
// to, and then snapshotted itself, still diverges from cur where it was
// written — its write copied the table it shared with cur — and the merge
// sees that divergence.
func TestMergeMutatedRefNeverGuides(t *testing.T) {
	cur := NewSpace()
	if err := cur.SetPerm(0, 4*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := cur.Write(0, []byte("base")); err != nil {
		t.Fatal(err)
	}
	ref, _ := cur.Snapshot()
	// Mutate the reference behind the merge's back, then snapshot it.
	if err := ref.Write(PageSize, []byte("ref-side change")); err != nil {
		t.Fatal(err)
	}
	ref.Snapshot()
	if cur.CleanSince(ref) {
		t.Fatal("cur reported clean against a ref written since")
	}
	// The merge must see the ref-side divergence: cur's page 1
	// (still "base"-era zeros) differs from ref's, so the merge folds
	// cur's bytes over the ref-side change.
	dst := NewSpace()
	dst.CopyAllFrom(ref)
	if _, err := Merge(dst, cur, ref, 0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	var b [15]byte
	if err := dst.Read(PageSize, b[:]); err != nil {
		t.Fatal(err)
	}
	if string(b[:]) == "ref-side change" {
		t.Error("merge skipped a page the ref diverged on")
	}
}

// TestMergeScansOccupiedSlots: inside a table the child no longer shares
// with its snapshot, the merge visits the slots either side backs and no
// others — here 4 per table, of the 1024 a slot walk visits — while still
// agreeing with the slot walk on everything else.
func TestMergeScansOccupiedSlots(t *testing.T) {
	parent := NewSpace()
	if err := parent.SetPerm(0, propSpan, PermRW); err != nil {
		t.Fatal(err)
	}
	// One backed page per table on both sides of the fork; the child backs
	// three more per table. Writing the parent too keeps both tables off
	// the whole-table adoption path.
	applyOps(t, parent, []memOp{{addr: 7 * PageSize, data: []byte("base")},
		{addr: (tableEntries + 7) * PageSize, data: []byte("base")}})
	var childOps []memOp
	for _, l1 := range []int{0, 1} {
		for i := 0; i < 3; i++ {
			childOps = append(childOps, memOp{
				addr: Addr(l1*tableEntries+100*i) * PageSize,
				data: []byte("child"),
			})
		}
	}
	parentOps := []memOp{{addr: 5 * PageSize, data: []byte("parent")},
		{addr: Addr(tableEntries+9) * PageSize, data: []byte("parent")}}
	got := runMerge(t, parent, childOps, parentOps, 0, propSpan, MergeConfig{})
	slots := runMergeSlots(t, parent, childOps, parentOps, 0, propSpan, MergeConfig{})
	if diff := outcomesEqual(got, slots, true); diff != "" {
		t.Fatalf("engine and slot walk disagree: %s", diff)
	}
	if got.st.PtesScanned != 8 {
		t.Errorf("merge scanned %d ptes, want the 8 backed slots of the two walked tables", got.st.PtesScanned)
	}
	if slots.st.PtesScanned != 2*tableEntries {
		t.Errorf("slot walk scanned %d ptes, want the %d slots of the two walked tables",
			slots.st.PtesScanned, 2*tableEntries)
	}
}
