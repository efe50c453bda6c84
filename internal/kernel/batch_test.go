package kernel

import (
	"fmt"
	"testing"

	"repro/internal/vm"
)

// Batched cross-node page transfers: one request round trip moves a run
// of pages, so bulk remote accesses pay per-run rather than per-page
// protocol overhead, and NetStats exposes deterministic message counts.

// remoteSpanRead runs a child on node 1 that bulk-reads a 16-page span
// it must demand-fetch, and returns the run result plus the child's
// traffic (delivered through Ret, packed as msgs<<32|pages).
func remoteSpanRead(t *testing.T, cost CostModel) (RunResult, int64, int64) {
	t.Helper()
	m := New(Config{Nodes: 2, Cost: cost})
	res := m.Run(func(env *Env) {
		env.SetPerm(0, 16*vm.PageSize, vm.PermRW)
		data := make([]uint32, 16*1024)
		for i := range data {
			data[i] = uint32(i * 7)
		}
		env.WriteU32s(0, data)
		ref := ChildOn(1, 1)
		if err := env.Put(ref, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				buf := make([]uint32, 16*1024)
				c.ReadU32s(0, buf) // demand-fetches all 16 pages
				n := c.NetStats()
				c.SetRet(uint64(n.Msgs)<<32 | uint64(n.Pages))
			}},
			CopyAll: true,
			Start:   true,
		}); err != nil {
			panic(err)
		}
		info, err := env.Get(ref, GetOpts{Regs: true})
		if err != nil {
			panic(err)
		}
		env.SetRet(info.Regs.Ret)
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	return res, int64(res.Ret >> 32), int64(res.Ret & 0xffffffff)
}

func TestBatchedFetchCollapsesMessages(t *testing.T) {
	batched := DefaultCostModel() // BatchPages 64
	unbatched := DefaultCostModel()
	unbatched.BatchPages = 1

	rb, bMsgs, bPages := remoteSpanRead(t, batched)
	ru, uMsgs, uPages := remoteSpanRead(t, unbatched)

	if bPages != 16 || uPages != 16 {
		t.Fatalf("pages moved: batched %d, unbatched %d, want 16", bPages, uPages)
	}
	if bMsgs != 1 {
		t.Errorf("batched fetch used %d messages, want 1 (one 16-page run)", bMsgs)
	}
	if uMsgs != 16 {
		t.Errorf("unbatched fetch used %d messages, want 16", uMsgs)
	}
	// The only cost difference is the 15 request round trips saved:
	// page-transfer volume, migrations and everything else are identical.
	saved := ru.VT - rb.VT
	if want := 15 * unbatched.BatchMsg; saved != want {
		t.Errorf("batching saved %d ticks, want exactly %d (15 requests)", saved, want)
	}
}

func TestBatchedFetchRespectsRunCap(t *testing.T) {
	cost := DefaultCostModel()
	cost.BatchPages = 4
	_, msgs, pages := remoteSpanRead(t, cost)
	if pages != 16 || msgs != 4 {
		t.Errorf("16-page span at cap 4: %d msgs / %d pages, want 4 / 16", msgs, pages)
	}
}

func TestBatchedMergeShipsDeltaRuns(t *testing.T) {
	// A remote child dirties two separated 3-page blocks; the collector's
	// merge must ship them as two batched runs (plus its one migration),
	// not six per-page messages.
	run := func(cost CostModel) (int64, NetStats) {
		m := New(Config{Nodes: 2, Cost: cost})
		res := m.Run(func(env *Env) {
			env.SetPerm(0, 32*vm.PageSize, vm.PermRW)
			ref := ChildOn(1, 1)
			if err := env.Put(ref, PutOpts{
				Regs: &Regs{Entry: func(c *Env) {
					for p := 4; p < 7; p++ {
						c.WriteU32(vm.Addr(p)*vm.PageSize, uint32(p))
					}
					for p := 20; p < 23; p++ {
						c.WriteU32(vm.Addr(p)*vm.PageSize, uint32(p))
					}
				}},
				CopyAll: true,
				Snap:    true,
				Start:   true,
			}); err != nil {
				panic(err)
			}
			if _, err := env.Get(ref, GetOpts{Merge: true}); err != nil {
				panic(err)
			}
			n := env.NetStats()
			env.SetRet(uint64(n.Msgs)<<32 | uint64(n.Pages))
		}, 0)
		if res.Status != StatusHalted {
			panic(res.Err)
		}
		return res.VT, NetStats{Msgs: int64(res.Ret >> 32), Pages: int64(res.Ret & 0xffffffff)}
	}
	batched := DefaultCostModel()
	unbatched := DefaultCostModel()
	unbatched.BatchPages = 1
	bVT, bNet := run(batched)
	uVT, uNet := run(unbatched)
	if bNet.Pages != 6 || uNet.Pages != 6 {
		t.Fatalf("delta pages: batched %d, unbatched %d, want 6", bNet.Pages, uNet.Pages)
	}
	// Batched: 1 migration + 2 delta runs. Unbatched: 1 migration + 6
	// per-page shipments.
	if bNet.Msgs != 3 {
		t.Errorf("batched collector sent %d messages, want 3", bNet.Msgs)
	}
	if uNet.Msgs != 7 {
		t.Errorf("unbatched collector sent %d messages, want 7", uNet.Msgs)
	}
	if bVT >= uVT {
		t.Errorf("batched merge VT %d not below unbatched %d", bVT, uVT)
	}
}

func TestSingleNodeReportsNoTraffic(t *testing.T) {
	m := New(Config{})
	res := m.Run(func(env *Env) {
		env.SetPerm(0, 8*vm.PageSize, vm.PermRW)
		buf := make([]uint32, 8*1024)
		env.ReadU32s(0, buf)
		n := env.NetStats()
		env.SetRet(uint64(n.Msgs + n.Pages))
	}, 0)
	if res.Status != StatusHalted || res.Ret != 0 {
		t.Fatalf("single-node traffic nonzero: %v ret=%d", res.Err, res.Ret)
	}
	if res.Net != (NetStats{}) {
		t.Errorf("RunResult.Net = %+v, want zeros", res.Net)
	}
}

// mergedBlocks runs a child on node 1 that writes pages [4,12) and
// [20,23), merges it back over r, and returns the root's traffic less
// the fork's one migration: the merge's own requests and pages.
func mergedBlocks(t *testing.T, batch int, r Range) NetStats {
	t.Helper()
	cost := DefaultCostModel()
	cost.BatchPages = batch
	m := New(Config{Nodes: 2, Cost: cost})
	res := m.Run(func(env *Env) {
		env.SetPerm(0, 64*vm.PageSize, vm.PermRW)
		ref := ChildOn(1, 1)
		if err := env.Put(ref, PutOpts{
			Regs: &Regs{Entry: func(c *Env) {
				for _, b := range [][2]int{{4, 12}, {20, 23}} {
					for p := b[0]; p < b[1]; p++ {
						c.WriteU32(vm.Addr(p)*vm.PageSize, 1)
					}
				}
			}},
			CopyAll: true,
			Snap:    true,
			Start:   true,
		}); err != nil {
			panic(err)
		}
		if _, err := env.Get(ref, GetOpts{Merge: true, MergeRange: &r}); err != nil {
			panic(err)
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	res.Net.Msgs--
	return res.Net
}

func TestMergeShipsContiguousRunsUnderCap(t *testing.T) {
	whole := Range{0, 64 * vm.PageSize}
	for _, tc := range []struct {
		batch int
		r     Range
		want  NetStats
	}{
		{64, whole, NetStats{Msgs: 2, Pages: 11}}, // [4,12) and [20,23)
		{3, whole, NetStats{Msgs: 4, Pages: 11}},  // 3+3+2, then 3
		{1, whole, NetStats{Msgs: 11, Pages: 11}}, // a page per request
		{64, Range{16 * vm.PageSize, 32 * vm.PageSize}, NetStats{Msgs: 1, Pages: 3}},
	} {
		if got := mergedBlocks(t, tc.batch, tc.r); got != tc.want {
			t.Errorf("cap %d over %+v: merge shipped %+v, want %+v", tc.batch, tc.r, got, tc.want)
		}
	}
}

func TestMergeOfUnmappedTableShipsNothing(t *testing.T) {
	// A child on another node whose first table is replaced by an unmapped
	// one (a table-aligned copy from an unmapped source, no new snapshot)
	// merges nothing: every MergeStats field is zero, so nothing ships
	// home. The only message is the fork's migration.
	const table = 1 << 22
	m := New(Config{Nodes: 2})
	res := m.Run(func(env *Env) {
		env.SetPerm(0, 8*vm.PageSize, vm.PermRW)
		for p := 0; p < 8; p++ {
			env.WriteU32(vm.Addr(p)*vm.PageSize, uint32(p+1))
		}
		ref := ChildOn(1, 1)
		if err := env.Put(ref, PutOpts{CopyAll: true, Snap: true}); err != nil {
			panic(err)
		}
		if err := env.Put(ref, PutOpts{Copy: &CopyRange{Src: 8 * table, Dst: 0, Size: table}}); err != nil {
			panic(err)
		}
		info, err := env.Get(ref, GetOpts{Merge: true})
		if err != nil {
			panic(err)
		}
		if info.Merge != (vm.MergeStats{}) {
			panic(fmt.Sprintf("merge stats %+v, want zeros", info.Merge))
		}
	}, 0)
	if res.Status != StatusHalted {
		t.Fatalf("%v: %v", res.Status, res.Err)
	}
	if want := (NetStats{Msgs: 1, Pages: 0}); res.Net != want {
		t.Errorf("root traffic %+v, want %+v", res.Net, want)
	}
	if res.VT != 106308 {
		t.Errorf("root VT %d, want 106308", res.VT)
	}
}
