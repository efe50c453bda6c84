package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vm"
)

// referenceChecksum is Checksum as it was before it learned to jump
// demand-zero pages: read the whole image in 64 KiB windows and fold
// every byte through FNV-1a. It is the oracle for both the value and
// the cost — each window is one Read, so what it charges is by
// definition what Checksum must charge.
func referenceChecksum(f *FS) uint64 {
	h := uint64(fnvOffset64)
	size := f.size()
	buf := make([]byte, checksumWindow)
	for off := uint64(0); off < size; off += uint64(len(buf)) {
		n := uint64(len(buf))
		if off+n > size {
			n = size - off
		}
		f.gbytes(uint32(off), buf[:n])
		for _, b := range buf[:n] {
			h = (h ^ uint64(b)) * fnvPrime64
		}
	}
	return h
}

// checksumMaxSize is the growable images' ceiling; like the initial
// sizes buildImage picks, deliberately not a multiple of the window.
const checksumMaxSize = 3<<20 + 5*vm.PageSize

// buildImage formats an image at testBase and drives a seeded history
// over it chosen to produce every page state Checksum distinguishes:
// never-written pages (demand-zero), written pages, pages written and
// then overwritten with zeros (backed, but all zero), pages freed by
// unlink and truncate, extents moved and scrubbed by Compact, pages
// mapped by growth. Individual operations may fail (ErrNoSpace on
// the fixed images); the history is a function of the seed either way.
func buildImage(env *kernel.Env, seed int64) *FS {
	rng := rand.New(rand.NewSource(seed))
	size := uint64(6+rng.Intn(60)) * vm.PageSize
	var f *FS
	if rng.Intn(2) == 0 {
		f = FormatGrowable(env, testBase, size, checksumMaxSize)
	} else {
		f = Format(env, testBase, size+uint64(rng.Intn(200))*vm.PageSize)
	}
	names := []string{"a", "b", "c", "d", "e", "f"}
	for op := 0; op < 80; op++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(8) {
		case 0, 1: // random bytes
			b := make([]byte, rng.Intn(3)*rng.Intn(30000)+rng.Intn(3000))
			rng.Read(b)
			_ = f.WriteFile(name, b)
		case 2: // the same file again, all zeros: backed pages holding zeros
			if info, err := f.Stat(name); err == nil {
				_ = f.WriteAt(name, 0, make([]byte, info.Size))
			}
		case 3: // a hole: bytes far into a file, zeros before them
			_ = f.Create(name)
			_ = f.WriteAt(name, rng.Intn(100000), []byte{byte(1 + rng.Intn(255))})
		case 4:
			_ = f.Unlink(name)
		case 5:
			_ = f.Truncate(name, rng.Intn(20000))
		case 6:
			_ = f.Append(name, make([]byte, rng.Intn(9000)))
		case 7:
			_, _ = f.Compact()
		}
	}
	return f
}

// probe is what one checksum call observably did.
type probe struct {
	Sum       uint64
	VT, Insns int64
	Net       kernel.NetStats
}

// measure runs sum and reports its value and what it advanced.
func measure(env *kernel.Env, f *FS, sum func(*FS) uint64) probe {
	vt, insns, net := env.VT(), env.Insns(), env.NetStats()
	p := probe{Sum: sum(f)}
	p.VT, p.Insns = env.VT()-vt, env.Insns()-insns
	after := env.NetStats()
	p.Net = kernel.NetStats{Msgs: after.Msgs - net.Msgs, Pages: after.Pages - net.Pages}
	return p
}

// checksumRun builds the seeded image in the root of a two-node machine
// whose cost model batches four pages per request — a quarter of a
// window, so how an access is split into Reads shows in the message
// count — and checksums it three times: in the root, in a child forked
// onto the second node (which must demand-fetch every page it touches),
// and in the root again.
func checksumRun(t *testing.T, seed int64, sum func(*FS) uint64) (root, remote, again probe, res kernel.RunResult) {
	t.Helper()
	cost := kernel.DefaultCostModel()
	cost.BatchPages = 4
	m := kernel.New(kernel.Config{Nodes: 2, Cost: cost})
	res = m.Run(func(env *kernel.Env) {
		f := buildImage(env, seed)
		root = measure(env, f, sum)
		ref := kernel.ChildOn(1, 1)
		if err := env.Put(ref, kernel.PutOpts{
			Regs: &kernel.Regs{Entry: func(c *kernel.Env) {
				cf, err := Attach(c, testBase, checksumMaxSize)
				if err != nil {
					panic(err)
				}
				remote = measure(c, cf, sum)
			}},
			CopyAll: true,
			Start:   true,
		}); err != nil {
			panic(err)
		}
		if info, err := env.Get(ref, kernel.GetOpts{}); err != nil || info.Status != kernel.StatusHalted {
			panic(fmt.Sprintf("remote child: %v, %v", info.Status, err))
		}
		again = measure(env, f, sum)
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("seed %d: %v: %v", seed, res.Status, res.Err)
	}
	return
}

// TestChecksumMatchesReference is the tentpole's safety net: over seeded
// image histories Checksum returns the reference's value and costs
// exactly what the reference's Reads cost — virtual time, instructions
// and cross-node traffic — locally and from a remote node.
func TestChecksumMatchesReference(t *testing.T) {
	sizes := map[uint64]bool{}
	for seed := int64(1); seed <= 24; seed++ {
		gotRoot, gotRemote, gotAgain, gotRes := checksumRun(t, seed, (*FS).Checksum)
		wantRoot, wantRemote, wantAgain, wantRes := checksumRun(t, seed, referenceChecksum)
		for _, c := range []struct {
			where     string
			got, want probe
		}{{"root", gotRoot, wantRoot}, {"remote child", gotRemote, wantRemote}, {"root again", gotAgain, wantAgain}} {
			if c.got != c.want {
				t.Errorf("seed %d, %s: Checksum did %+v, reference did %+v", seed, c.where, c.got, c.want)
			}
		}
		if gotRes != wantRes {
			t.Errorf("seed %d: run result %+v, reference %+v", seed, gotRes, wantRes)
		}
		if gotRemote.Sum != gotRoot.Sum || gotRemote.Net.Pages == 0 {
			t.Errorf("seed %d: remote child saw %#x after fetching %d pages, root saw %#x",
				seed, gotRemote.Sum, gotRemote.Net.Pages, gotRoot.Sum)
		}
		sizes[uint64(gotRoot.Insns)*8%checksumWindow] = true
	}
	// Insns is one tick per eight bytes, so it recovers the image size:
	// make sure the seeds did exercise a short last window.
	if len(sizes) < 4 {
		t.Errorf("image sizes fell on %d distinct window remainders; want a spread of short last windows", len(sizes))
	}
}

// TestChecksumFaultsOnUnreadablePage: a page inside the image that has
// lost read permission is neither backed nor readable, and must stop
// Checksum with the same fault, at the same address and virtual time,
// as the Read it replaces — not be mistaken for a run of zeros.
func TestChecksumFaultsOnUnreadablePage(t *testing.T) {
	for _, perm := range []vm.Perm{vm.PermNone, vm.PermW} {
		for _, page := range []vm.Addr{7, 16, 40} { // file data; a window's first page; mid-window — the last two never written
			run := func(sum func(*FS) uint64) kernel.RunResult {
				return kernel.New(kernel.Config{}).Run(func(env *kernel.Env) {
					f := Format(env, testBase, 50*vm.PageSize)
					if err := f.WriteFile("x", make([]byte, 3*vm.PageSize)); err != nil {
						panic(err)
					}
					env.SetPerm(testBase+page*vm.PageSize, vm.PageSize, perm)
					sum(f)
				}, 0)
			}
			got, want := run((*FS).Checksum), run(referenceChecksum)
			var ge, we *vm.AccessError
			if got.Status != kernel.StatusFault || !errors.As(got.Err, &ge) {
				t.Fatalf("perm %v on page %d: Checksum ended %v (%v), want a read fault", perm, page, got.Status, got.Err)
			}
			if !errors.As(want.Err, &we) || *ge != *we || got.VT != want.VT || got.Insns != want.Insns {
				t.Errorf("perm %v on page %d: fault %+v at VT %d, reference %+v at VT %d", perm, page, *ge, got.VT, *we, want.VT)
			}
		}
	}
}

// TestFNVPow pins the zero-run jump to its definition: n FNV-1a steps
// over zero bytes.
func TestFNVPow(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 4095, 4096, 4097, checksumWindow} {
		want := uint64(fnvOffset64)
		for i := uint64(0); i < n; i++ {
			want = (want ^ 0) * fnvPrime64
		}
		if got := fnvOffset64 * fnvPow(n); got != want {
			t.Errorf("fnvPow(%d): jump gives %#x, %d single steps give %#x", n, got, n, want)
		}
	}
}

// TestChecksumWordPatterns puts Checksum's word fold in front of the
// backed pages that sit on its seams: a single non-zero byte at each of
// the eight offsets of a word, a backed page holding nothing but zeros,
// and pages whose only non-zero word is the first or the last. Each
// page is written non-zero first and then overwritten, so it is backed
// whatever it ends up holding. Value and cost must be the reference's.
func TestChecksumWordPatterns(t *testing.T) {
	type row struct {
		name string
		set  map[int]byte // offset in the page -> byte
	}
	rows := []row{
		{"backed page of zeros", nil},
		{"first word only", map[int]byte{0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 8}},
		{"last word only", map[int]byte{4088: 1, 4089: 2, 4090: 3, 4091: 4, 4092: 5, 4093: 6, 4094: 7, 4095: 8}},
		{"last byte only", map[int]byte{4095: 0x80}},
	}
	for k := 0; k < 8; k++ {
		rows = append(rows, row{fmt.Sprintf("byte %d of a word", k), map[int]byte{8*37*(k+1) + k: byte(0x11 * (k + 1))}})
	}
	for _, r := range rows {
		page := make([]byte, vm.PageSize)
		for off, c := range r.set {
			page[off] = c
		}
		var backed int
		run := func(sum func(*FS) uint64) (p probe) {
			indexEnv(t, func(env *kernel.Env) {
				f := Format(env, testBase, 40*vm.PageSize)
				count := func() (n int) {
					env.ReadRuns(testBase, 40*vm.PageSize, func(b []byte) { n += len(b) }, func(int) {})
					return n
				}
				before := count()
				if err := f.WriteFile("w", bytes.Repeat([]byte{0xAA}, len(page))); err != nil {
					panic(err)
				}
				if err := f.WriteAt("w", 0, page); err != nil {
					panic(err)
				}
				backed = count() - before
				p = measure(env, f, sum)
			})
			return p
		}
		got, want := run((*FS).Checksum), run(referenceChecksum)
		if got != want {
			t.Errorf("%s: Checksum did %+v, reference did %+v", r.name, got, want)
		}
		if backed < len(page) {
			t.Errorf("%s: writing the page backed %d more bytes, want at least the page", r.name, backed)
		}
	}
}

// TestFNVFoldMatchesByteLoop pins the fold to its definition on
// spans around two words long — every length from nothing to a
// two-word span with a tail — and around the 64-byte block it tests for
// zero, and in each all zeros, a single non-zero byte at every
// position, and noise.
func TestFNVFoldMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range append(lengths, 63, 64, 65, 128+17, 200) {
		spans := [][]byte{make([]byte, n)}
		for i := 0; i < n; i++ {
			b := make([]byte, n)
			b[i] = byte(1 + rng.Intn(255))
			spans = append(spans, b)
		}
		noise := make([]byte, n)
		rng.Read(noise)
		spans = append(spans, noise)
		for _, b := range spans {
			h := rng.Uint64()
			want := h
			for _, c := range b {
				want = (want ^ uint64(c)) * fnvPrime64
			}
			if got := fnvFold(h, b); got != want {
				t.Errorf("fnvFold(%#x, %x) = %#x, the byte loop gives %#x", h, b, got, want)
			}
		}
	}
}

// BenchmarkChecksum times Checksum over the image a build leaves: the
// default 16 MiB, a few dozen short files, so the backed pages are the
// superblock, the inode table and file pages that are mostly slack.
func BenchmarkChecksum(b *testing.B) {
	indexEnv(b, func(env *kernel.Env) {
		f := Format(env, DefaultBase, DefaultSize)
		for i := 0; i < 40; i++ {
			if err := f.WriteFile(fmt.Sprintf("f%02d", i), bytes.Repeat([]byte("static int x;\n"), 5+i)); err != nil {
				panic(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checksumSink = f.Checksum()
		}
	})
}

var checksumSink uint64
