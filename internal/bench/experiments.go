package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Fig7 reproduces Figure 7: Determinator performance relative to a
// nondeterministic baseline on all seven benchmarks at the modelled CPU
// count. Ratios above 1 mean Determinator is slower. The ratio is in
// deterministic virtual time against an idealized zero-overhead
// baseline; the host wall-clock ratio against the real goroutine
// baselines is benchmark/'s par_coarse and par_fine wall_ratio.
func Fig7(o Options) Table {
	cpus := o.cpus()
	cost := kernel.DefaultCostModel()
	t := Table{
		ID:     "fig7",
		Title:  fmt.Sprintf("Determinator relative to nondeterministic baseline (%d modelled CPUs)", cpus),
		Header: []string{"benchmark", "size", "det-vt", "ideal-base-vt", "vt-ratio"},
	}
	for _, spec := range workload.Specs() {
		size := o.size(spec)
		det := runDet(spec, cpus, cpus, 1, size, cost)
		ideal := idealBaselineVT(spec, size, cpus, cpus, cost)
		t.AddRow(spec.Name, iv(int64(size)), iv(det.VT), iv(ideal),
			f2(float64(det.VT)/float64(ideal)))
	}
	t.Note("vt-ratio compares against an ideal baseline that pays nothing for sync or isolation;")
	t.Note("coarse-grained benchmarks should sit near 1, fine-grained (fft, lu) well above — the paper's shape.")
	return t
}

// Fig8 reproduces Figure 8: each benchmark's self-speedup over its own
// single-CPU deterministic run, for 1..12 modelled CPUs.
func Fig8(o Options) Table {
	cpuSteps := []int{1, 2, 4, 8, o.cpus()}
	cost := kernel.DefaultCostModel()
	t := Table{ID: "fig8", Title: "Determinator parallel speedup over its own 1-CPU run"}
	t.Header = []string{"benchmark"}
	for _, c := range cpuSteps {
		t.Header = append(t.Header, fmt.Sprintf("%dcpu", c))
	}
	for _, spec := range workload.Specs() {
		size := o.size(spec)
		base := runDet(spec, 1, 1, 1, size, cost).VT
		row := []string{spec.Name}
		for _, c := range cpuSteps {
			vt := runDet(spec, c, c, 1, size, cost).VT
			row = append(row, f2(float64(base)/float64(vt)))
		}
		t.AddRow(row...)
	}
	t.Note("md5/blackscholes scale best; matmult and fft level off; qsort and lu scale poorly (paper Fig. 8).")
	return t
}

// sweep runs a det-vs-ideal-baseline size sweep for one benchmark
// (Figures 9 and 10): virtual time relative to the baseline as the
// problem grows.
func sweep(id, title, name string, sizes []int, o Options) Table {
	spec, err := workload.Lookup(name)
	if err != nil {
		panic(err)
	}
	cpus := o.cpus()
	cost := kernel.DefaultCostModel()
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"size", "det-vt", "ideal-base-vt", "vt-ratio"},
	}
	for _, size := range sizes {
		det := runDet(spec, cpus, cpus, 1, size, cost)
		ideal := idealBaselineVT(spec, size, cpus, cpus, cost)
		t.AddRow(iv(int64(size)), iv(det.VT), iv(ideal),
			f2(float64(det.VT)/float64(ideal)))
	}
	t.Note("small problems pay the per-fork page-copy/merge cost; ratios fall toward 1 as size grows (paper Figs. 9/10).")
	return t
}

// Fig9 reproduces Figure 9: matrix multiply with varying matrix size.
func Fig9(o Options) Table {
	sizes := []int{16, 32, 64, 128, 256}
	if o.Quick {
		sizes = []int{16, 32, 64, 128}
	}
	return sweep("fig9", "matmult vs matrix size (relative to baseline)", "matmult", sizes, o)
}

// Fig10 reproduces Figure 10: parallel quicksort with varying array size.
func Fig10(o Options) Table {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}
	if o.Quick {
		sizes = []int{1 << 10, 1 << 12, 1 << 14}
	}
	return sweep("fig10", "qsort vs array size (relative to baseline)", "qsort", sizes, o)
}

// Fig11 reproduces Figure 11: speedup of the distributed shared-memory
// benchmarks on growing clusters of uniprocessor nodes, relative to
// single-node execution.
func Fig11(o Options) Table {
	nodeSteps := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		nodeSteps = []int{1, 2, 4, 8}
	}
	// The figures reproduce the paper's per-page migration protocol;
	// batched transfers (a post-paper extension) are measured by the
	// cluster experiment instead.
	cost := kernel.DefaultCostModel()
	cost.BatchPages = 1
	mdSize := 1 << 15
	mmSize := 256
	if o.Quick {
		mdSize = 1 << 12
		mmSize = 64
	}
	benches := []struct {
		name   string
		fn     distFn
		size   int
		shared uint64
	}{
		{"md5-circuit", workload.MD5Circuit, mdSize, 1 << 20},
		{"md5-tree", workload.MD5Tree, mdSize, 1 << 20},
		{"matmult-tree", workload.MatmultTree, mmSize, uint64(3*4*mmSize*mmSize) + (8 << 20)},
	}
	t := Table{ID: "fig11", Title: "distributed speedup over 1-node execution (uniprocessor nodes)"}
	t.Header = []string{"benchmark"}
	for _, n := range nodeSteps {
		t.Header = append(t.Header, fmt.Sprintf("%dnode", n))
	}
	for _, b := range benches {
		base := runDistDet(b.name, b.fn, 1, b.size, b.shared, cost).VT
		row := []string{b.name}
		for _, n := range nodeSteps {
			vt := runDistDet(b.name, b.fn, n, b.size, b.shared, cost).VT
			row = append(row, f2(float64(base)/float64(vt)))
		}
		t.AddRow(row...)
	}
	t.Note("md5-tree scales with recursive fan-out; md5-circuit serializes on the master's tour;")
	t.Note("matmult-tree levels off early — operand pages dominate the wire (paper Fig. 11).")
	return t
}

type distFn = func(rt *coreRT, nodes, size int) uint64

// Fig12 reproduces Figure 12: the deterministic shared-memory cluster
// benchmarks against nondeterministic distributed-memory (message
// passing) equivalents, same cost constants, plus the TCP-like timing
// sensitivity check (<2% in the paper).
func Fig12(o Options) Table {
	nodeSteps := []int{1, 2, 4, 8, 16}
	if o.Quick {
		nodeSteps = []int{1, 2, 4}
	}
	// Per-page protocol, as in Fig11: the paper's baselines and the
	// deterministic runs are compared under the paper's wire model.
	cost := kernel.DefaultCostModel()
	cost.BatchPages = 1
	tcp := cost
	tcp.TCPLike = true
	mdSize := 1 << 15
	mmSize := 256
	if o.Quick {
		mdSize = 1 << 12
		mmSize = 64
	}
	t := Table{ID: "fig12", Title: "deterministic shared-memory vs distributed-memory message passing"}
	t.Header = []string{"nodes", "md5-det", "md5-msg", "mm-det", "mm-msg", "md5-det/tcp", "mm-det/tcp"}

	md5Base := runDistDet("md5-tree", workload.MD5Tree, 1, mdSize, 1<<20, cost).VT
	md5MsgBase := baseline.MD5Dist(1, mdSize, cost).VT
	mmShared := uint64(3*4*mmSize*mmSize) + (8 << 20)
	mmBase := runDistDet("matmult-tree", workload.MatmultTree, 1, mmSize, mmShared, cost).VT
	mmMsgBase := baseline.MatmultDist(1, mmSize, cost).VT

	for _, n := range nodeSteps {
		md5Det := runDistDet("md5-tree", workload.MD5Tree, n, mdSize, 1<<20, cost).VT
		md5Msg := baseline.MD5Dist(n, mdSize, cost).VT
		mmDet := runDistDet("matmult-tree", workload.MatmultTree, n, mmSize, mmShared, cost).VT
		mmMsg := baseline.MatmultDist(n, mmSize, cost).VT
		md5Tcp := runDistDet("md5-tree", workload.MD5Tree, n, mdSize, 1<<20, tcp).VT
		mmTcp := runDistDet("matmult-tree", workload.MatmultTree, n, mmSize, mmShared, tcp).VT
		t.AddRow(iv(int64(n)),
			f2(float64(md5Base)/float64(md5Det)),
			f2(float64(md5MsgBase)/float64(md5Msg)),
			f2(float64(mmBase)/float64(mmDet)),
			f2(float64(mmMsgBase)/float64(mmMsg)),
			pct(float64(md5Tcp)/float64(md5Det)-1),
			pct(float64(mmTcp)/float64(mmDet)-1))
	}
	t.Note("speedups relative to each system's own 1-node run; det and msg columns should track each other")
	t.Note("(paper Fig. 12); the tcp columns show TCP-like round-trip timing costs of a few percent (paper §6.3).")
	return t
}

// Quantum reproduces the §6.2 quantum-overhead observation: blackscholes
// under the deterministic scheduler at several quanta, against the same
// portfolio priced on native private-workspace threads.
func Quantum(o Options) Table {
	cost := kernel.DefaultCostModel()
	size := 1 << 14
	if o.Quick {
		size = 1 << 11
	}
	threads := 4
	quanta := []int64{20_000, 100_000, 500_000, 2_500_000, 10_000_000}
	nativeSpec, _ := workload.Lookup("blackscholes")
	native := runDetFn("blackscholes-native", func(rt *coreRT, th, sz int) uint64 {
		return workload.BlackscholesDet(rt, th, sz)
	}, threads, o.cpus(), size, nativeSpec.SharedBytes(size), cost)

	t := Table{
		ID:     "quantum",
		Title:  "deterministic scheduler overhead vs quantum (blackscholes)",
		Header: []string{"quantum", "dsched-vt", "native-vt", "overhead"},
	}
	for _, q := range quanta {
		q := q
		ds := runDetFn("blackscholes-dsched", func(rt *coreRT, th, sz int) uint64 {
			return workload.BlackscholesQuantum(rt, th, sz, q)
		}, threads, o.cpus(), size, nativeSpec.SharedBytes(size), cost)
		if ds.Value != native.Value {
			panic("bench: quantum sweep changed results")
		}
		t.AddRow(iv(q), iv(ds.VT), iv(native.VT), pct(float64(ds.VT)/float64(native.VT)-1))
	}
	t.Note("overhead shrinks as the quantum grows; the paper reports ~35%% at a 10M-instruction")
	t.Note("quantum for the full PARSEC run, and porting to the native API eliminates it (§6.2).")
	return t
}
