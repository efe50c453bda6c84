package workload

import (
	"crypto/md5"
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/vm"
)

// The md5 benchmark emulates a brute-force password search (§6.2): scan
// the candidate space [0, size) for the value whose digest matches a
// target digest. The target is planted at a fixed fraction of the space;
// the scan always covers the whole space so the work is
// schedule-independent (an early exit would leak timing back into the
// result, exactly what Determinator prohibits).

// MD5Target plants the needle at the given fraction of the space.
func MD5Target(size int) uint64 { return uint64(size) * 3 / 4 }

// MD5Candidate hashes one candidate value.
func MD5Candidate(v uint64) [md5.Size]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return md5.Sum(b[:])
}

// md5TicksPerHash approximates the instruction cost of one MD5 of a
// small buffer.
const md5TicksPerHash = 680

// md5Scan scans [lo, hi) for the target digest, ticking env per hash.
// Returns the found candidate + 1, or 0.
func md5Scan(tick func(int64), lo, hi uint64, want [md5.Size]byte) uint64 {
	var found uint64
	const batch = 64
	n := int64(0)
	for v := lo; v < hi; v++ {
		if MD5Candidate(v) == want {
			found = v + 1
		}
		n++
		if n == batch {
			tick(batch * md5TicksPerHash)
			n = 0
		}
	}
	tick(n * md5TicksPerHash)
	return found
}

// MD5Det runs the search on threads private-workspace threads. Each
// thread writes its verdict into its own result slot; the merge is
// conflict-free by construction.
func MD5Det(rt *core.RT, threads, size int) uint64 {
	want := MD5Candidate(MD5Target(size))
	slots := rt.Alloc(uint64(8*threads), 8)
	for i := 0; i < threads; i++ {
		i := i
		if err := rt.Fork(i, func(t *core.Thread) uint64 {
			lo, hi := stripe(size, threads, i)
			got := md5Scan(t.Env().Tick, uint64(lo), uint64(hi), want)
			t.Env().WriteU64(slots+vm.Addr(8*i), got)
			return 0
		}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < threads; i++ {
		if _, err := rt.Join(i); err != nil {
			panic(err)
		}
	}
	var found uint64
	for i := 0; i < threads; i++ {
		if v := rt.Env().ReadU64(slots + vm.Addr(8*i)); v != 0 {
			found = v - 1
		}
	}
	return found
}
