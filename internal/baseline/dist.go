package baseline

import (
	"sync"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// Distributed-memory equivalents of the cluster benchmarks (Figure 12):
// a master endpoint ships explicit work and data to one worker per node
// over the simulated network, workers compute on private copies, and
// results travel back as messages — the style of the paper's Linux
// baselines, which used remote shells (md5) and explicit TCP transfers
// (matmult). Virtual time is tracked by simnet with the same cost
// constants charged to Determinator's migration protocol.

// DistResult carries a distributed run's answer and makespan.
type DistResult struct {
	Value uint64
	VT    int64 // virtual completion time at the master
}

// md5WorkTicks mirrors the Determinator version's per-hash accounting.
const md5TicksPerHash = 680

// MD5Dist runs the brute-force search over nodes workers with explicit
// messaging. Only a tiny work descriptor crosses the wire, so it scales
// almost linearly — as the paper's md5 baselines do.
func MD5Dist(nodes, size int, cost kernel.CostModel) DistResult {
	net := newSimnet(nodes+1, cost)
	const master = 0
	want := workload.MD5Candidate(workload.MD5Target(size))
	results := make([]uint64, nodes)
	// The master ships every work descriptor before any worker runs: a
	// reply folded into its clock between two of its own sends would make
	// the makespan depend on host scheduling.
	for w := 0; w < nodes; w++ {
		net.send(master, w+1, 16) // work descriptor: [lo, hi)
	}
	var wg sync.WaitGroup
	for w := 0; w < nodes; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := stripe(size, nodes, w)
			var found uint64
			for v := uint64(lo); v < uint64(hi); v++ {
				if workload.MD5Candidate(v) == want {
					found = v + 1
				}
			}
			net.compute(w+1, int64(hi-lo)*md5TicksPerHash)
			results[w] = found
			net.send(w+1, master, 8) // result
		}()
	}
	wg.Wait()
	var found uint64
	for _, v := range results {
		if v != 0 {
			found = v - 1
		}
	}
	return DistResult{Value: found, VT: net.now(master)}
}

// matmulTicksPerMAC mirrors the Determinator version's accounting.
const matmulTicksPerMAC = 4

// MatmultDist runs the multiply over nodes workers: the master ships each
// worker its stripe of A plus all of B (the explicit data transfer the
// paper's TCP-based baseline performs), and receives C stripes back.
func MatmultDist(nodes, n int, cost kernel.CostModel) DistResult {
	net := newSimnet(nodes+1, cost)
	const master = 0
	a := workload.GenU32(n*n, 0xA)
	b := workload.GenU32(n*n, 0xB)
	c := make([]uint32, n*n)
	// All shipping first, as in MD5Dist: stripe of A plus all of B, 4
	// bytes per word.
	for w := 0; w < nodes; w++ {
		if rlo, rhi := stripe(n, nodes, w); rlo != rhi {
			net.send(master, w+1, 4*((rhi-rlo)*n+n*n))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < nodes; w++ {
		rlo, rhi := stripe(n, nodes, w)
		if rlo == rhi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			av := make([]uint32, (rhi-rlo)*n)
			copy(av, a[rlo*n:rhi*n])
			bv := make([]uint32, n*n)
			copy(bv, b)
			out := workload.MatmultRowsRef(av, bv, n, rlo, rhi)
			net.compute(w+1, int64(rhi-rlo)*int64(n)*int64(n)*matmulTicksPerMAC)
			copy(c[rlo*n:], out)
			net.send(w+1, master, 4*(rhi-rlo)*n)
		}()
	}
	wg.Wait()
	return DistResult{Value: workload.ChecksumU32(c), VT: net.now(master)}
}

// StencilDist is the distributed-memory equivalent of the cluster
// stencil (workload.ClusterStencil): one worker endpoint per node owns
// its block of thread stripes privately; every phase the master gathers
// each worker's boundary words, broadcasts the combined vector, and the
// workers compute their stripes locally. Only boundaries and work
// descriptors cross the wire — the explicit-messaging program a
// distributed-systems programmer would write by hand — making it the
// fairness baseline for the per-node delegate collectors, which must approach
// this traffic shape while still providing the shared-memory model.
func StencilDist(nodes, threads, pagesPerThread, phases int, cost kernel.CostModel) int64 {
	net := newSimnet(nodes+1, cost)
	const master = 0
	// Stripe ownership mirrors the deterministic side's blocked
	// placement exactly: thread i lives on node i*nodes/threads, so an
	// uneven division assigns the same per-node stripe counts here.
	perNode := make([]int, nodes)
	for i := 0; i < threads; i++ {
		perNode[i*nodes/threads]++
	}
	stripeBytes := pagesPerThread * 4096
	for p := 0; p < phases; p++ {
		// Masters' broadcast of the combined boundary vector...
		for w := 0; w < nodes; w++ {
			net.send(master, w+1, 8*threads)
		}
		// ...each worker recomputes its stripes (same tick accounting as
		// the deterministic version: one write per 8 bytes)...
		for w := 0; w < nodes; w++ {
			net.compute(w+1, int64(perNode[w])*int64(stripeBytes)/8)
		}
		// ...and returns its new boundary words.
		for w := 0; w < nodes; w++ {
			net.send(w+1, master, 8*perNode[w])
		}
	}
	// Final gather of the stripes themselves for the result checksum.
	for w := 0; w < nodes; w++ {
		net.send(w+1, master, perNode[w]*stripeBytes)
	}
	return net.now(master)
}
