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

// benchShapes spells two of the end-to-end benchmark's five DAG shapes
// locally (benchmark/ is a main package): a 24-wide fan-out folding into
// one link, where a wave is many siblings, and a 16-deep chain, where
// every wave is a single task. Same task counts, actions and source
// sizes as benchmark/make.go; the source bytes are fixed text.
func benchShapes(b *testing.B) []benchShape {
	text := func(stem string, n int) []byte {
		return []byte(strings.Repeat(stem, n/len(stem)+1)[:n])
	}
	var wide []*Task
	wideSrc := make(map[string][]byte)
	var objs []string
	for i := 0; i < 24; i++ {
		in, obj := fmt.Sprintf("src/f%02d.c", i), fmt.Sprintf("out/f%02d.o", i)
		wideSrc[in] = text(fmt.Sprintf("static int f%02d(void);\n", i), 512)
		wide = append(wide, &Task{ID: fmt.Sprintf("cc%02d", i), Action: "derive",
			Args: []string{fmt.Sprint(i)}, Inputs: []string{in}, Outputs: []string{obj}})
		objs = append(objs, obj)
	}
	wide = append(wide, &Task{ID: "link", Action: "concat", Inputs: objs, Outputs: []string{"out/a.out"}})

	var chain []*Task
	prev := "src/seed.txt"
	for i := 0; i < 16; i++ {
		out := fmt.Sprintf("out/c%02d.dat", i)
		chain = append(chain, &Task{ID: fmt.Sprintf("c%02d", i), Action: "derive",
			Args: []string{fmt.Sprint(i)}, Inputs: []string{prev}, Outputs: []string{out}})
		prev = out
	}
	chainSrc := map[string][]byte{"src/seed.txt": text("seed value offset;\n", 256)}

	return []benchShape{
		{"wide", mustGraph(b, wide), len(wide), wideSrc},
		{"chain", mustGraph(b, chain), len(chain), chainSrc},
	}
}

// BenchmarkBuild times whole builds on the host: cold, every task
// executing in its own space and every result stored into a fresh cache,
// and warm, the same build again with every task a hit. It is the
// package-level ruler for the two paths the end-to-end make_cold and
// make_warm workloads measure; `make bench-smoke` runs one iteration.
func BenchmarkBuild(b *testing.B) {
	for _, s := range benchShapes(b) {
		cfg := Config{Graph: s.graph, Sources: s.sources}
		b.Run("cold/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Store, cfg.Index = castore.NewMemStore(), NewMemIndex()
				res, err := Build(cfg)
				if err != nil || res.Stats.Executed != s.tasks {
					b.Fatalf("cold build: %+v, %v", res.Stats, err)
				}
			}
		})
		b.Run("warm/"+s.name, func(b *testing.B) {
			cfg.Store, cfg.Index = castore.NewMemStore(), NewMemIndex()
			if _, err := Build(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Build(cfg)
				if err != nil || res.Stats.CacheHits != s.tasks {
					b.Fatalf("warm build: %+v, %v", res.Stats, err)
				}
			}
		})
	}
}
