package workload

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// KVStore is the key-value-store reconciliation scenario: a multi-thread
// store whose state is a shared file-system image, one file per key.
// Each thread owns a key stripe (a directory of its own) inside a
// private replica of the whole image — the paper's private-workspace
// model applied at file granularity — and the master folds every
// replica back in at the round's synchronization point through FS
// reconciliation, not byte merging:
//
//   - stripe files propagate as only-child-changed adoptions;
//   - every thread appends to one shared log, which merges by
//     concatenation (append-only files never conflict);
//   - every thread overwrites one deliberately contended key, so each
//     round reports exactly threads-1 conflicts, which the master then
//     resolves deterministically by re-creating the file;
//   - deletions tombstone and free extents, and the master runs a
//     Compact (reclaiming tombstones) after each round's reconciles —
//     the quiescent sync point — so the image stays canonical and space
//     is measurably reused.
//
// Everything — thread interleaving aside, which the model forbids from
// mattering — is a pure function of the configuration, so the returned
// checksum is bit-identical at any host parallelism (GOMAXPROCS); the
// tests assert exactly that.

// KVConfig parameterizes a KVStore run.
type KVConfig struct {
	Threads   int
	Keys      int // keys per thread stripe
	Ops       int // operations per thread per round
	Rounds    int
	WritePct  int // percentage of ops that mutate (rest read)
	ValueSize int // maximum value size in bytes
	FSInit    uint64
	FSMax     uint64
}

func (c KVConfig) withDefaults() KVConfig {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Keys == 0 {
		c.Keys = 8
	}
	if c.Ops == 0 {
		c.Ops = 32
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.ValueSize == 0 {
		c.ValueSize = 256
	}
	if c.FSInit == 0 {
		c.FSInit = 64 << 10
	}
	if c.FSMax == 0 {
		c.FSMax = 16 << 20
	}
	return c
}

// KVStats reports a run's reconciliation and space-reuse behaviour.
type KVStats struct {
	Conflicts int        // total conflicts reported (and resolved)
	GC        fs.GCStats // master image's allocator counters at the end
	Image     uint64     // final image size in bytes
}

const (
	kvFSBase  vm.Addr = 0x8000_0000 // master + child replica location
	kvScratch vm.Addr = 0xA000_0000 // parent-side copy for reconciling
	kvLog             = "kv/log"
	kvHot             = "kv/hot" // the contended key
	kvSeedMix         = 0x9E3779B97F4A7C15
)

func kvMix(x uint64) uint64 {
	x += kvSeedMix
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// kvReadDigest folds one ReadFile result into the round digest. Misses
// are matched with errors.Is: the previous identity switch on
// fs.ErrNotFound would panic the round — changing the workload's result
// bytes — the moment any filesystem path started wrapping the sentinel
// with context.
func kvReadDigest(digest uint64, data []byte, err error) uint64 {
	switch {
	case err == nil:
		for _, b := range data {
			digest = digest*1099511628211 ^ uint64(b)
		}
		return digest
	case errors.Is(err, fs.ErrNotFound):
		return kvMix(digest ^ 0x404)
	default:
		panic(err)
	}
}

// KVStore runs the scenario on rt's machine and returns the fold of all
// thread digests, conflict history and the final image checksum,
// together with the stats. It drives the kernel API directly — each
// fork ships the shared region and the FS image in one Put (Copies),
// each collect merges the shared region (exercising the kernel's
// parallel merge engine) and then reconciles the replica.
func KVStore(rt *core.RT, cfg KVConfig) (uint64, KVStats) {
	cfg = cfg.withDefaults()
	env := rt.Env()
	sharedBase, sharedSize := rt.SharedRange()
	digests := rt.Alloc(uint64(8*cfg.Threads), 8)

	env.SetPerm(kvScratch, cfg.FSMax, vm.PermRW)
	fsys := fs.FormatGrowable(env, kvFSBase, cfg.FSInit, cfg.FSMax)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(fsys.Mkdir("kv"))
	for t := 0; t < cfg.Threads; t++ {
		must(fsys.Mkdir(fmt.Sprintf("kv/s%d", t)))
	}
	must(fsys.CreateAppendOnly(kvLog))
	must(fsys.Create(kvHot))

	var stats KVStats
	checksum := kvMix(uint64(cfg.Threads)<<32 ^ uint64(cfg.Ops))
	refs := make([]uint64, cfg.Threads)
	for t := range refs {
		refs[t] = uint64(t + 1)
	}

	for round := 0; round < cfg.Rounds; round++ {
		imgSize := fsys.ImageSize()
		for t := 0; t < cfg.Threads; t++ {
			th, rnd := t, round
			must(env.Put(refs[t], kernel.PutOpts{
				Regs: &kernel.Regs{Entry: func(c *kernel.Env) {
					kvThread(c, cfg, rnd, th, digests)
				}},
				Copies: []kernel.CopyRange{
					{Src: sharedBase, Dst: sharedBase, Size: sharedSize},
					{Src: kvFSBase, Dst: kvFSBase, Size: imgSize},
				},
				Snap:  true,
				Start: true,
			}))
		}
		var roundConflicts []fs.Conflict
		for t := 0; t < cfg.Threads; t++ {
			info, err := env.Get(refs[t], kernel.GetOpts{
				Merge:      true,
				MergeRange: &kernel.Range{Addr: sharedBase, Size: sharedSize},
			})
			must(err)
			if info.Status != kernel.StatusHalted {
				panic(fmt.Sprintf("kvstore: thread %d stopped with %v: %v", t, info.Status, info.Err))
			}
			// Copy out the child's whole image span, as uproc does: its
			// replica may have grown, and Attach refuses one that claims
			// more than the span.
			_, err = env.Get(refs[t], kernel.GetOpts{
				Copy: &kernel.CopyRange{Src: kvFSBase, Dst: kvScratch, Size: cfg.FSMax},
			})
			must(err)
			replica, err := fs.Attach(env, kvScratch, cfg.FSMax)
			must(err)
			conflicts, err := fsys.ReconcileFrom(replica)
			must(err)
			roundConflicts = append(roundConflicts, conflicts...)
		}
		// Resolve every conflicted path deterministically: re-create
		// (which clears the flag and frees the stale extent) and write
		// a resolution value derived from the round. The same path may
		// be reported once per diverging child; resolve it once.
		resolved := make(map[string]bool, len(roundConflicts))
		for _, c := range roundConflicts {
			if resolved[c.Name] {
				continue
			}
			resolved[c.Name] = true
			must(fsys.Create(c.Name))
			must(fsys.WriteFile(c.Name, []byte(fmt.Sprintf("resolved r%d %s", round, c.Name))))
			checksum = kvMix(checksum ^ kvMix(uint64(len(c.Name))))
		}
		stats.Conflicts += len(roundConflicts)
		// The quiescent sync point: every child collected, none
		// outstanding — compact to the canonical layout and reclaim
		// tombstones.
		if _, err := fsys.Compact(); err != nil {
			panic(err)
		}
		for t := 0; t < cfg.Threads; t++ {
			checksum = kvMix(checksum ^ env.ReadU64(digests+vm.Addr(8*t)))
		}
		checksum = kvMix(checksum ^ uint64(len(roundConflicts)))
	}
	stats.GC = fsys.GC()
	stats.Image = fsys.ImageSize()
	checksum = kvMix(checksum ^ fsys.Checksum())
	return checksum, stats
}

// kvThread is one round of one thread's work against its private
// replica: a deterministic op mix over its own key stripe, one append
// to the shared log, one write to the contended key.
func kvThread(env *kernel.Env, cfg KVConfig, round, th int, digests vm.Addr) {
	fsys, err := fs.Attach(env, kvFSBase, cfg.FSMax)
	if err != nil {
		panic(err)
	}
	fsys.StampFork()
	digest := kvMix(uint64(round+1)<<20 ^ uint64(th+1))
	r := digest
	stripe := fmt.Sprintf("kv/s%d", th)
	for i := 0; i < cfg.Ops; i++ {
		r = kvMix(r)
		key := fmt.Sprintf("%s/k%02d", stripe, int(r>>8)%cfg.Keys)
		switch {
		case int(r%100) < cfg.WritePct && (r>>16)%4 == 0:
			// Deletion slot: drop the key if present (tombstone + freed
			// extent), else seed it.
			if _, err := fsys.Stat(key); err == nil {
				if err := fsys.Unlink(key); err != nil {
					panic(err)
				}
				digest = kvMix(digest ^ 0xDE1E7E)
				continue
			}
			fallthrough
		case int(r%100) < cfg.WritePct:
			val := kvValue(r, cfg.ValueSize)
			if err := fsys.WriteFile(key, val); err != nil {
				panic(err)
			}
			digest = kvMix(digest ^ uint64(len(val)))
		default:
			data, err := fsys.ReadFile(key)
			digest = kvReadDigest(digest, data, err)
		}
	}
	if err := fsys.Append(kvLog, []byte(fmt.Sprintf("r%d t%d %016x\n", round, th, digest))); err != nil {
		panic(err)
	}
	if err := fsys.WriteFile(kvHot, kvValue(digest, 64)); err != nil {
		panic(err)
	}
	env.WriteU64(digests+vm.Addr(8*th), digest)
}

// kvValue derives a deterministic value of varying length (1..max) from
// a PRNG word; varying lengths are what make the free list split,
// coalesce and best-fit for real.
func kvValue(r uint64, max int) []byte {
	n := 1 + int((r>>24)%uint64(max))
	val := make([]byte, n)
	b := byte(r)
	for i := range val {
		val[i] = b + byte(i)
	}
	return val
}
