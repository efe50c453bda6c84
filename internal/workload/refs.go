package workload

// Sequential references: each whole benchmark computed in one pass, and
// the few helpers package baseline needs beyond the kernels themselves.
// The kernels the Determinator versions run (MD5Candidate, QsortSeq,
// QsortPartition, FFTButterflies, the LU* block kernels) are exported
// under their own names, so baseline and the tests execute
// byte-identical arithmetic. Keeping one copy of each kernel is what
// makes the three-way equivalence checks (sequential == deterministic ==
// baseline) sharp.

// QsortSeqFull is the sequential reference for the whole benchmark.
func QsortSeqFull(size int) uint64 {
	a := GenU32(size, 0x50F7)
	QsortSeq(a)
	return ChecksumU32(a)
}

// FFTInput builds the benchmark's bit-reversed input array.
func FFTInput(size int) []float64 {
	data := GenF64(2*size, 0xFF7)
	fftBitReverse(data)
	return data
}

// FFTApplyRef applies an update list produced by FFTButterflies.
func FFTApplyRef(data []float64, half, blo, bhi int, updates []float64) {
	for k, b := 0, blo; b < bhi; k, b = k+4, b+1 {
		i := (b/half)*2*half + b%half
		j := i + half
		data[2*i], data[2*i+1] = updates[k], updates[k+1]
		data[2*j], data[2*j+1] = updates[k+2], updates[k+3]
	}
}

// MatmultRowsRef computes result rows [rlo, rhi) with the shared kernel.
func MatmultRowsRef(av, bv []uint32, n, rlo, rhi int) []uint32 {
	return matmultRows(av, bv, n, rlo, rhi, func(int64) {})
}

// MatmultSeq is the sequential reference for the whole benchmark.
func MatmultSeq(n int) uint64 {
	a := GenU32(n*n, 0xA)
	b := GenU32(n*n, 0xB)
	out := matmultRows(a, b, n, 0, n, func(int64) {})
	return ChecksumU32(out)
}

// BlackscholesSeq is the sequential reference for the whole benchmark.
func BlackscholesSeq(size int) uint64 {
	opts := GenOptions(size)
	prices := make([]float64, size)
	for i, o := range opts {
		prices[i] = Price(o)
	}
	return ChecksumF64(prices)
}

// MD5Seq is the sequential reference for the whole benchmark.
func MD5Seq(size int) uint64 {
	want := MD5Candidate(MD5Target(size))
	if v := md5Scan(func(int64) {}, 0, uint64(size), want); v != 0 {
		return v - 1
	}
	return 0
}
