package baseline

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// The cross-world equivalence tests: every nondeterministic baseline must
// produce the same checksum as the sequential reference (and therefore,
// via workload's own tests, the same as the Determinator versions).

func TestMD5MatchesSequential(t *testing.T) {
	const size = 4096
	want := workload.MD5Seq(size)
	for _, threads := range []int{1, 2, 5} {
		if got := MD5(threads, size); got != want {
			t.Errorf("threads=%d: %d, want %d", threads, got, want)
		}
	}
}

func TestMatmultMatchesSequential(t *testing.T) {
	const n = 48
	want := workload.MatmultSeq(n)
	for _, threads := range []int{1, 2, 4} {
		if got := Matmult(threads, n); got != want {
			t.Errorf("threads=%d: %d, want %d", threads, got, want)
		}
	}
}

func TestQsortMatchesSequential(t *testing.T) {
	const size = 10000
	want := workload.QsortSeqFull(size)
	for _, threads := range []int{1, 2, 8} {
		if got := Qsort(threads, size); got != want {
			t.Errorf("threads=%d: %d, want %d", threads, got, want)
		}
	}
}

func TestBlackscholesMatchesSequential(t *testing.T) {
	const size = 3000
	want := workload.BlackscholesSeq(size)
	for _, threads := range []int{1, 3} {
		if got := Blackscholes(threads, size); got != want {
			t.Errorf("threads=%d: %d, want %d", threads, got, want)
		}
	}
}

func TestFFTMatchesSequential(t *testing.T) {
	const size = 1024
	want := workload.FFTSeq(size)
	for _, threads := range []int{1, 2, 4} {
		if got := FFT(threads, size); got != want {
			t.Errorf("threads=%d: %d, want %d", threads, got, want)
		}
	}
}

func TestLUMatchesSequential(t *testing.T) {
	const n = 96
	want := workload.LUSeq(n)
	for _, threads := range []int{1, 2, 4} {
		if got := LU(threads, n); got != want {
			t.Errorf("threads=%d: %d, want %d", threads, got, want)
		}
	}
}

func TestBaselinesCoverAllSpecs(t *testing.T) {
	bs := Baselines()
	for _, s := range workload.Specs() {
		if bs[s.Name] == nil {
			t.Errorf("no baseline for %q", s.Name)
		}
	}
}

func TestMD5DistMatchesAndScales(t *testing.T) {
	const size = 4096
	want := workload.MD5Seq(size)
	cost := kernel.DefaultCostModel()
	vt1 := MD5Dist(1, size, cost)
	vt4 := MD5Dist(4, size, cost)
	if vt1.Value != want || vt4.Value != want {
		t.Errorf("values %d/%d, want %d", vt1.Value, vt4.Value, want)
	}
	if vt4.VT >= vt1.VT {
		t.Errorf("4 nodes (%d) not faster than 1 (%d)", vt4.VT, vt1.VT)
	}
}

func TestMatmultDistMatches(t *testing.T) {
	const n = 32
	want := workload.MatmultSeq(n)
	cost := kernel.DefaultCostModel()
	for _, nodes := range []int{1, 2, 4} {
		r := MatmultDist(nodes, n, cost)
		if r.Value != want {
			t.Errorf("nodes=%d: %d, want %d", nodes, r.Value, want)
		}
		if r.VT <= 0 {
			t.Errorf("nodes=%d: nonpositive VT %d", nodes, r.VT)
		}
	}
}

func TestSimnetCausality(t *testing.T) {
	net := newSimnet(3, kernel.DefaultCostModel())
	net.compute(1, 1000)
	net.send(1, 2, 4096)
	// The receiver's clock must be at least the sender's at send time.
	if net.now(2) <= net.now(1)-1000 {
		t.Errorf("delivery time %d ignores sender clock %d", net.now(2), net.now(1))
	}
	before := net.now(2)
	net.send(0, 2, 64) // from an idle sender: must not move receiver backwards
	if net.now(2) < before {
		t.Error("receiver clock moved backwards")
	}
}

// A payload one page over the batch window pays the kernel protocol's
// per-batch framing once more, beyond the page's own transfer time — the
// same charge a migration of that many pages pays.
func TestSimnetChargesBatchFraming(t *testing.T) {
	cost := kernel.DefaultCostModel()
	delivery := func(pages int) int64 {
		net := newSimnet(2, cost)
		net.send(0, 1, pages*4096)
		return net.now(1)
	}
	got := delivery(cost.BatchPages+1) - delivery(cost.BatchPages)
	if want := cost.PageTransfer + cost.BatchMsg; got != want {
		t.Errorf("the page past the window cost %d, want transfer %d + framing %d",
			got, cost.PageTransfer, cost.BatchMsg)
	}
}
