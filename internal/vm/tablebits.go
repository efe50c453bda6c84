package vm

// Exported table geometry: higher layers (the kernel's merge plumbing,
// dsched's per-table sync epochs) reason about level-1 table granularity
// without knowing the paging internals.
const (
	// TableSpan is the address span one level-2 table covers: the
	// granularity of COW table sharing, of whole-table merge adoption,
	// and of dsched's per-table resync epochs.
	TableSpan = uint64(tableEntries) << l2Shift
)

// TableOf returns the level-1 table index covering address a.
func TableOf(a Addr) int { return int(a >> l1Shift) }

// TableBits is a bitset over level-1 table indices. Merge uses it to
// report which of the destination's 4 MiB tables a merge actually
// modified (MergeConfig.Touched), which is what lets collectors bump
// sync epochs per table instead of per region.
type TableBits [tableEntries / 64]uint64

// Set marks table l1.
func (b *TableBits) Set(l1 int) { b[l1>>6] |= 1 << (uint(l1) & 63) }

// Test reports whether table l1 is marked.
func (b *TableBits) Test(l1 int) bool { return b[l1>>6]&(1<<(uint(l1)&63)) != 0 }

// Any reports whether any table is marked.
func (b *TableBits) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}
