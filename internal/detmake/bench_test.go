package detmake

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/castore"
)

// benchShape is one graph BenchmarkBuild builds.
type benchShape struct {
	name    string
	graph   *Graph
	tasks   int
	sources map[string][]byte
}

// benchShapes spells the end-to-end benchmark's five DAG shapes locally
// (benchmark/ is a main package): a 24-wide fan-out folding into one
// link, where a wave is many siblings; a 16-deep chain, where every wave
// is a single task; a diamond; dedup's chunk, eight compressors and a
// pack; and ferret's six four-stage pipelines folding into one result.
// Same task counts, actions and source sizes as benchmark/make.go; the
// source bytes are fixed text.
func benchShapes(b testing.TB) []benchShape {
	text := func(stem string, n int) []byte {
		return []byte(strings.Repeat(stem, n/len(stem)+1)[:n])
	}
	derive := func(id, arg, in, out string) *Task {
		return &Task{ID: id, Action: "derive", Args: []string{arg}, Inputs: []string{in}, Outputs: []string{out}}
	}
	var wide []*Task
	wideSrc := make(map[string][]byte)
	var objs []string
	for i := 0; i < 24; i++ {
		in, obj := fmt.Sprintf("src/f%02d.c", i), fmt.Sprintf("out/f%02d.o", i)
		wideSrc[in] = text(fmt.Sprintf("static int f%02d(void);\n", i), 512)
		wide = append(wide, derive(fmt.Sprintf("cc%02d", i), fmt.Sprint(i), in, obj))
		objs = append(objs, obj)
	}
	wide = append(wide, &Task{ID: "link", Action: "concat", Inputs: objs, Outputs: []string{"out/a.out"}})

	var chain []*Task
	prev := "src/seed.txt"
	for i := 0; i < 16; i++ {
		out := fmt.Sprintf("out/c%02d.dat", i)
		chain = append(chain, derive(fmt.Sprintf("c%02d", i), fmt.Sprint(i), prev, out))
		prev = out
	}
	chainSrc := map[string][]byte{"src/seed.txt": text("seed value offset;\n", 256)}

	diamond := []*Task{
		{ID: "top", Action: "upper", Inputs: []string{"src/top.txt"}, Outputs: []string{"out/top.dat"}},
		derive("left", "l", "out/top.dat", "out/l.dat"),
		derive("right", "r", "out/top.dat", "out/r.dat"),
		{ID: "bottom", Action: "concat", Inputs: []string{"out/l.dat", "out/r.dat"}, Outputs: []string{"out/bot.dat"}},
	}
	diamondSrc := map[string][]byte{"src/top.txt": text("node left right parent;\n", 256)}

	var raws, comps []string
	for i := 0; i < 8; i++ {
		raws = append(raws, fmt.Sprintf("chunk/p%02d.raw", i))
		comps = append(comps, fmt.Sprintf("comp/p%02d.z", i))
	}
	dedup := []*Task{{ID: "chunk", Action: "chunk", Inputs: []string{"src/stream.bin"}, Outputs: raws}}
	for i := range raws {
		dedup = append(dedup, derive(fmt.Sprintf("comp%02d", i), "z", raws[i], comps[i]))
	}
	dedup = append(dedup, &Task{ID: "pack", Action: "concat", Inputs: comps, Outputs: []string{"out/stream.ddp"}})
	dedupSrc := map[string][]byte{"src/stream.bin": text("buffer length index result;\n", 4096)}

	var ferret []*Task
	ferretSrc := make(map[string][]byte)
	var ranks []string
	for q := 0; q < 6; q++ {
		prev := fmt.Sprintf("src/q%02d.img", q)
		ferretSrc[prev] = text(fmt.Sprintf("hash table entry %02d;\n", q), 1024)
		for s, stage := range []string{"seg", "ext", "idx", "rank"} {
			out := fmt.Sprintf("out/q%02d.%s", q, stage)
			ferret = append(ferret, derive(fmt.Sprintf("q%02d-%s", q, stage), fmt.Sprint(s), prev, out))
			prev = out
		}
		ranks = append(ranks, prev)
	}
	ferret = append(ferret, &Task{ID: "merge", Action: "concat", Inputs: ranks, Outputs: []string{"out/results.txt"}})

	return []benchShape{
		{"wide", mustGraph(b, wide), len(wide), wideSrc},
		{"chain", mustGraph(b, chain), len(chain), chainSrc},
		{"diamond", mustGraph(b, diamond), len(diamond), diamondSrc},
		{"dedup", mustGraph(b, dedup), len(dedup), dedupSrc},
		{"ferret", mustGraph(b, ferret), len(ferret), ferretSrc},
	}
}

// BenchmarkBuild times whole builds on the host: cold, every task
// executing in its own space and every result stored into a fresh cache,
// and warm, the same build again with every task a hit. It is the
// package-level ruler for the two paths the end-to-end make_cold and
// make_warm workloads measure; `make bench-smoke` runs one iteration.
//
// The pass variants are the ones to profile. A make_cold op is the five
// shapes built into one fresh store, so the store's one-time costs (a
// compressor is a megabyte of tables) are paid once per 80 tasks; a
// single shape against its own fresh store pays them per 16 or 25 and
// overstates them threefold.
//
// Even the pass is a skewed profile, though: under `go test` the live heap
// sits at the runtime's 4 MB minimum trigger and is collected about twice
// per pass, which the long-running benchmark process does not do. Against
// a profile of that process (PR 23, docs/perf.md) the pass overstated GC
// threefold (gcBgMarkWorker 16.9 % vs 5.8 %, bgscavenge 8.9 % vs 2.1 %)
// and understated fs metadata reads by a third (fs.gu32 15.0 % vs
// 24.1 %). Use this benchmark to time a change; order the work from a
// profile of `benchmark --workload make_cold` itself.
func BenchmarkBuild(b *testing.B) {
	shapes := benchShapes(b)
	build := func(b *testing.B, s benchShape, store castore.BlobStore, idx ActionIndex, warm bool) {
		res, err := Build(Config{Graph: s.graph, Sources: s.sources, Store: store, Index: idx})
		if err != nil || !warm && res.Stats.Executed != s.tasks || warm && res.Stats.CacheHits != s.tasks {
			b.Fatalf("%s build (warm=%v): %+v, %v", s.name, warm, res.Stats, err)
		}
	}
	// run benchmarks group, a list of shapes sharing one store.
	run := func(name string, group []benchShape) {
		b.Run("cold/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store, idx := castore.NewMemStore(), NewMemIndex()
				for _, s := range group {
					build(b, s, store, idx, false)
				}
			}
		})
		b.Run("warm/"+name, func(b *testing.B) {
			store, idx := castore.NewMemStore(), NewMemIndex()
			for _, s := range group {
				build(b, s, store, idx, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range group {
					build(b, s, store, idx, true)
				}
			}
		})
	}
	for _, s := range shapes[:2] {
		run(s.name, []benchShape{s})
	}
	run("pass", shapes)
}
