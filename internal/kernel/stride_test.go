package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vm"
)

// Env.ReadU32Stride's contract is that it cannot be told apart from the
// loop of ReadU32 it stands for. The oracle below runs every case twice,
// in twin machines that differ only in which of the two the child calls,
// and compares everything either could have moved.

// Memory the cases read: four pages at strideTable — demand-zero, backed,
// PermNone, backed — the last two pages of the address space, backed, and
// nothing at all in strideHole's level-1 slot.
const (
	strideTable vm.Addr = 0x0010_0000
	strideTop   vm.Addr = 0xFFFF_E000
	strideHole  vm.Addr = 0x4000_0000

	stridePre  = 40 // ticks the child spends before the batch
	stridePost = 40 // and after it
)

type strideCase struct {
	addr, stride vm.Addr
	n            int
}

// strideMode says how the child is driven: its node, the instruction
// limit of its first start and of every restart after a limit trap, and
// whether the batch runs inside NoPreempt.
type strideMode struct {
	name      string
	nodes     int
	limit     func(c strideCase) int64
	relimit   int64
	noPreempt bool
}

var strideModes = []strideMode{
	{name: "nolimit", nodes: 1, limit: func(strideCase) int64 { return 0 }},
	{name: "before", nodes: 1, limit: func(strideCase) int64 { return stridePre / 2 }},
	{name: "inside", nodes: 1, limit: func(c strideCase) int64 { return stridePre + int64(c.n)/2 + 1 }},
	{name: "lasttick", nodes: 1, limit: func(c strideCase) int64 { return stridePre + int64(c.n) }},
	{name: "justpast", nodes: 1, limit: func(c strideCase) int64 { return stridePre + int64(c.n) + 1 }},
	{name: "after", nodes: 1, limit: func(c strideCase) int64 { return stridePre + int64(c.n) + stridePost/2 }},
	{name: "quantum7", nodes: 1, limit: func(strideCase) int64 { return 7 }, relimit: 7},
	{name: "nopreempt", nodes: 1, limit: func(c strideCase) int64 { return stridePre + int64(c.n)/2 + 1 }, noPreempt: true},
	{name: "migrated", nodes: 2, limit: func(strideCase) int64 { return 0 }},
	{name: "migrated-inside", nodes: 2, limit: func(c strideCase) int64 { return stridePre + int64(c.n)/2 + 1 }},
}

// strideObs is everything the twins are compared on.
type strideObs struct {
	Vals   []uint32
	Parks  []int64 // the child's Insns at each limit trap
	Status Status
	Fault  string // type and text of the trap cause: address, permissions, span
	Insns  int64
	VT     int64
	Net    NetStats
	Root   RunResult
}

// stridePattern is the word the table holds at word index w after the
// parent's gen-th rewrite; no two generations agree anywhere.
func stridePattern(gen, w int) uint32 { return uint32(gen+1)<<24 | uint32(w) }

// strideFill (re)writes every backed page of the layout in the caller's
// own memory.
func strideFill(env *Env, gen int) {
	page := make([]uint32, vm.PageSize/4)
	for _, base := range []vm.Addr{strideTable + vm.PageSize, strideTable + 3*vm.PageSize, strideTop, strideTop + vm.PageSize} {
		for i := range page {
			page[i] = stridePattern(gen, int(base/4)+i)
		}
		env.WriteU32s(base, page)
	}
}

func runStride(t *testing.T, c strideCase, m strideMode, column bool) strideObs {
	t.Helper()
	obs := strideObs{Vals: make([]uint32, c.n)}
	var cenv *Env
	ref := uint64(1)
	if m.nodes > 1 {
		ref = ChildOn(1, 1)
	}
	copies := []CopyRange{
		{Src: strideTable, Dst: strideTable, Size: 4 * vm.PageSize},
		{Src: strideTop, Dst: strideTop, Size: 2 * vm.PageSize},
	}
	obs.Root = New(Config{Nodes: m.nodes}).Run(func(env *Env) {
		env.SetPerm(strideTable, 4*vm.PageSize, vm.PermRW)
		env.SetPerm(strideTop, 2*vm.PageSize, vm.PermRW)
		strideFill(env, 0)
		env.WriteU32(strideTable+2*vm.PageSize, 0xdead) // backed, then made unreadable
		env.SetPerm(strideTable+2*vm.PageSize, vm.PageSize, vm.PermNone)
		child := func(ce *Env) {
			cenv = ce
			ce.Tick(stridePre)
			read := func() {
				if column {
					ce.ReadU32Stride(c.addr, c.stride, obs.Vals)
					return
				}
				for i := range obs.Vals {
					obs.Vals[i] = ce.ReadU32(c.addr + vm.Addr(i)*c.stride)
				}
			}
			if m.noPreempt {
				ce.NoPreempt(read)
			} else {
				read()
			}
			ce.Tick(stridePost)
		}
		if err := env.Put(ref, PutOpts{Regs: &Regs{Entry: child}, Copies: copies, Start: true, Limit: m.limit(c)}); err != nil {
			panic(err)
		}
		for {
			info, err := env.Get(ref, GetOpts{})
			if err != nil {
				panic(err)
			}
			if info.Status != StatusInsnLimit {
				obs.Status, obs.Insns = info.Status, info.Insns
				if info.Err != nil {
					obs.Fault = fmt.Sprintf("%T %v", info.Err, info.Err)
				}
				return
			}
			// Parked: give the child a new table before it goes on, so
			// whatever it loads after the trap must be the new words.
			obs.Parks = append(obs.Parks, info.Insns)
			strideFill(env, len(obs.Parks))
			if err := env.Put(ref, PutOpts{Copies: copies, Start: true, Limit: m.relimit}); err != nil {
				panic(err)
			}
		}
	}, 0)
	if obs.Root.Status != StatusHalted {
		t.Fatalf("root stopped %v: %v", obs.Root.Status, obs.Root.Err)
	}
	obs.VT, obs.Net = cenv.sp.vt, cenv.sp.net
	return obs
}

func strideCases() []strideCase {
	cases := []strideCase{
		{strideTable + vm.PageSize + 8, 0, 5},                           // one word, five times
		{strideTable, 4, 2 * vm.PageSize / 4},                           // demand-zero then backed
		{strideTable + vm.PageSize, 4, vm.PageSize/4 + 3},               // runs into the PermNone page
		{strideTable + vm.PageSize + 128, 128, 127},                     // the inode table's shape, across PermNone
		{strideTable + 3*vm.PageSize + 32, 128, 31},                     // the same, all on one page
		{strideTable + 3*vm.PageSize, 4, vm.PageSize/4 + 1},             // off the end of the mapping
		{strideTable, 4094, 3},                                          // second word straddles zero|backed
		{strideTable + vm.PageSize + 4094, 4, 2},                        // first word straddles backed|PermNone
		{strideTop + 4094, 0, 3},                                        // a straddling word, reread
		{0xFFFF_FFFC - 4*9, 4, 10},                                      // ends at the last word
		{0xFFFF_FFF6, 4, 4},                                             // third word's span leaves the address space
		{0xFFFF_FFF8, 4, 4},                                             // third address wraps to 0
		{strideTop, 0x1000_0000, 3},                                     // stride wraps the address
		{strideHole, 128, 127},                                          // no level-2 table at all
		{strideTable + vm.PageSize, 4, 0},                               // empty
		{strideTable + vm.PageSize, 4, 1},                               // single
		{strideTable + vm.PageSize, vm.PageSize * 2, 2},                 // page, skip one, page
		{strideTable + 3*vm.PageSize, ^vm.Addr(0) - vm.PageSize + 1, 3}, // negative stride: walks down into PermNone
	}
	rng := rand.New(rand.NewSource(23))
	bases := []vm.Addr{strideTable, strideTable + vm.PageSize, strideTable + 3*vm.PageSize, strideTop, strideTop + vm.PageSize, strideHole}
	strides := []vm.Addr{0, 4, 128, 4092, 4094, 4096, 6, 1000}
	for i := 0; i < 40; i++ {
		c := strideCase{
			addr:   bases[rng.Intn(len(bases))] + vm.Addr(rng.Intn(vm.PageSize)),
			stride: strides[rng.Intn(len(strides))],
			n:      rng.Intn(200),
		}
		if rng.Intn(4) == 0 {
			c.stride = vm.Addr(rng.Uint32())
		}
		cases = append(cases, c)
	}
	return cases
}

func TestReadU32StrideMatchesScalar(t *testing.T) {
	faults, parks := 0, 0
	for _, c := range strideCases() {
		for _, m := range strideModes {
			got := runStride(t, c, m, true)
			want := runStride(t, c, m, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%#x+i*%#x ×%d, %s:\ncolumn %+v\nscalar %+v", c.addr, c.stride, c.n, m.name, got, want)
			}
			if got.Status == StatusFault {
				faults++
			}
			parks += len(got.Parks)
		}
	}
	if faults == 0 || parks == 0 {
		t.Fatalf("cases exercised %d faults and %d limit traps; both must occur", faults, parks)
	}
}

// A batch the limit lands inside parks at exactly the tick the scalar
// loop would, and every word loaded after the trap comes from the table
// the parent installed while the child was parked.
func TestReadU32StrideParksMidBatch(t *testing.T) {
	c := strideCase{strideTable + vm.PageSize + 128, 128, 31}
	m := strideMode{nodes: 1, limit: func(strideCase) int64 { return stridePre + 11 }}
	obs := runStride(t, c, m, true)
	if obs.Status != StatusHalted || !reflect.DeepEqual(obs.Parks, []int64{stridePre + 11}) {
		t.Fatalf("status %v, parks %v; want one trap at %d", obs.Status, obs.Parks, stridePre+11)
	}
	// The eleventh tick of the batch traps before its load: words 0…9
	// were loaded before the park, word 10 and the rest after it.
	for i, v := range obs.Vals {
		gen := 0
		if i >= 10 {
			gen = 1
		}
		if want := stridePattern(gen, int(c.addr/4)+i*32); v != want {
			t.Errorf("word %d = %#x, want %#x (generation %d)", i, v, want, gen)
		}
	}
}

// Inside NoPreempt the trap is deferred to the end of the critical
// section, so the whole batch is one charge and nothing parks within it.
func TestReadU32StrideInsideNoPreempt(t *testing.T) {
	c := strideCase{strideTable + vm.PageSize, 4, 64}
	m := strideMode{nodes: 1, limit: func(strideCase) int64 { return stridePre + 5 }, noPreempt: true}
	obs := runStride(t, c, m, true)
	if !reflect.DeepEqual(obs.Parks, []int64{stridePre + 64}) {
		t.Fatalf("parks %v, want one at the NoPreempt boundary (%d)", obs.Parks, stridePre+64)
	}
	for i, v := range obs.Vals {
		if want := stridePattern(0, int(c.addr/4)+i); v != want {
			t.Fatalf("word %d = %#x, want %#x", i, v, want)
		}
	}
}

// BenchmarkReadU32Stride reads one field of a 127-record table at the
// inode table's stride, as one column and as the loop it stands for.
func BenchmarkReadU32Stride(b *testing.B) {
	for _, column := range []bool{true, false} {
		name := "column"
		if !column {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			res := New(Config{}).Run(func(env *Env) {
				env.SetPerm(strideTable, 4*vm.PageSize, vm.PermRW)
				env.WriteU32(strideTable, 1) // back the first page; the rest stay demand-zero
				var col [127]uint32
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if column {
						env.ReadU32Stride(strideTable, 128, col[:])
						continue
					}
					for j := range col {
						col[j] = env.ReadU32(strideTable + vm.Addr(j)*128)
					}
				}
			}, 0)
			if res.Status != StatusHalted {
				b.Fatalf("%v: %v", res.Status, res.Err)
			}
		})
	}
}
