package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/castore"
	"repro/internal/detmake"
)

// shape is one build DAG with its source tree. leaf, when set, is the
// source an incremental rebuild edits.
type shape struct {
	name    string
	graph   *detmake.Graph
	tasks   int
	sources map[string][]byte
	leaf    string
}

// sourceWords is the vocabulary of the generated sources: text-like
// bytes, so the store's codec sees what it would see in a source tree.
var sourceWords = strings.Fields(`int static const return if else for while struct void
	char unsigned long include define buffer length index result value offset
	node next prev left right parent child key hash table entry count size`)

// sourceText returns n bytes of text drawn from the seed's stream. The
// length is fixed by the shape, so the exact per-layer counts (bytes
// stored, bytes fetched, virtual time) do not depend on the seed; only
// the bytes themselves do.
func sourceText(r *rng, n int) []byte {
	b := make([]byte, 0, n+16)
	for len(b) < n {
		b = append(b, sourceWords[r.next()%uint64(len(sourceWords))]...)
		if r.next()%8 == 0 {
			b = append(b, ';', '\n')
		} else {
			b = append(b, ' ')
		}
	}
	return b[:n]
}

// makeShapes generates the five DAG shapes (80 tasks in all) with
// source bytes drawn from the seed: a wide fan-out with one link
// (24+1), a chain (16), a diamond (4), a dedup pipeline (1+8+1) and
// ferret's per-query pipelines folding into one result (6×4+1).
func makeShapes(seed uint64) ([]shape, error) {
	r := rng(seed)
	var out []shape
	add := func(name string, tasks []*detmake.Task, sources map[string][]byte, leaf string) error {
		g, err := detmake.NewGraph(tasks)
		if err != nil {
			return fmt.Errorf("shape %s: %w", name, err)
		}
		out = append(out, shape{name: name, graph: g, tasks: len(tasks), sources: sources, leaf: leaf})
		return nil
	}

	{
		const wide = 24
		src := make(map[string][]byte, wide)
		var tasks []*detmake.Task
		var objs []string
		for i := 0; i < wide; i++ {
			in, obj := fmt.Sprintf("src/f%02d.c", i), fmt.Sprintf("out/f%02d.o", i)
			src[in] = sourceText(&r, 512)
			tasks = append(tasks, &detmake.Task{ID: fmt.Sprintf("cc%02d", i), Action: "derive",
				Args: []string{fmt.Sprint(i)}, Inputs: []string{in}, Outputs: []string{obj}})
			objs = append(objs, obj)
		}
		tasks = append(tasks, &detmake.Task{ID: "link", Action: "concat", Inputs: objs, Outputs: []string{"out/a.out"}})
		if err := add("wide", tasks, src, "src/f00.c"); err != nil {
			return nil, err
		}
	}
	{
		const depth = 16
		src := map[string][]byte{"src/seed.txt": sourceText(&r, 256)}
		var tasks []*detmake.Task
		prev := "src/seed.txt"
		for i := 0; i < depth; i++ {
			o := fmt.Sprintf("out/c%02d.dat", i)
			tasks = append(tasks, &detmake.Task{ID: fmt.Sprintf("c%02d", i), Action: "derive",
				Args: []string{fmt.Sprint(i)}, Inputs: []string{prev}, Outputs: []string{o}})
			prev = o
		}
		if err := add("chain", tasks, src, ""); err != nil {
			return nil, err
		}
	}
	{
		src := map[string][]byte{"src/top.txt": sourceText(&r, 256)}
		tasks := []*detmake.Task{
			{ID: "top", Action: "upper", Inputs: []string{"src/top.txt"}, Outputs: []string{"out/top.dat"}},
			{ID: "left", Action: "derive", Args: []string{"l"}, Inputs: []string{"out/top.dat"}, Outputs: []string{"out/l.dat"}},
			{ID: "right", Action: "derive", Args: []string{"r"}, Inputs: []string{"out/top.dat"}, Outputs: []string{"out/r.dat"}},
			{ID: "bottom", Action: "concat", Inputs: []string{"out/l.dat", "out/r.dat"}, Outputs: []string{"out/bot.dat"}},
		}
		if err := add("diamond", tasks, src, ""); err != nil {
			return nil, err
		}
	}
	{
		const parts = 8
		src := map[string][]byte{"src/stream.bin": sourceText(&r, 4096)}
		var raws, comps []string
		for i := 0; i < parts; i++ {
			raws = append(raws, fmt.Sprintf("chunk/p%02d.raw", i))
			comps = append(comps, fmt.Sprintf("comp/p%02d.z", i))
		}
		tasks := []*detmake.Task{{ID: "chunk", Action: "chunk", Inputs: []string{"src/stream.bin"}, Outputs: raws}}
		for i := 0; i < parts; i++ {
			tasks = append(tasks, &detmake.Task{ID: fmt.Sprintf("comp%02d", i), Action: "derive",
				Args: []string{"z"}, Inputs: []string{raws[i]}, Outputs: []string{comps[i]}})
		}
		tasks = append(tasks, &detmake.Task{ID: "pack", Action: "concat", Inputs: comps, Outputs: []string{"out/stream.ddp"}})
		if err := add("dedup", tasks, src, ""); err != nil {
			return nil, err
		}
	}
	{
		const queries = 6
		stages := []string{"seg", "ext", "idx", "rank"}
		src := make(map[string][]byte, queries)
		var tasks []*detmake.Task
		var ranks []string
		for q := 0; q < queries; q++ {
			in := fmt.Sprintf("src/q%02d.img", q)
			src[in] = sourceText(&r, 1024)
			prev := in
			for s, stage := range stages {
				o := fmt.Sprintf("out/q%02d.%s", q, stage)
				tasks = append(tasks, &detmake.Task{ID: fmt.Sprintf("q%02d-%s", q, stage), Action: "derive",
					Args: []string{fmt.Sprint(s)}, Inputs: []string{prev}, Outputs: []string{o}})
				prev = o
			}
			ranks = append(ranks, prev)
		}
		tasks = append(tasks, &detmake.Task{ID: "merge", Action: "concat", Inputs: ranks, Outputs: []string{"out/results.txt"}})
		if err := add("ferret", tasks, src, "src/q00.img"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildCache is a build cache: a chunk store and its action index.
type buildCache struct {
	store castore.Store
	index detmake.ActionIndex
}

// newMemCache returns an empty in-memory cache.
func newMemCache() *buildCache {
	return &buildCache{store: castore.NewMemStore(), index: detmake.NewMemIndex()}
}

// bits is what a build must reproduce: the tree digest and the master
// image checksum.
type bits struct {
	digest   castore.Key
	checksum uint64
}

// makeWorkload is make_cold or make_warm: one op is a pass of
// detmake.Build over the five shapes against one cache — a fresh one per
// pass for make_cold, the one set-up pre-warmed for make_warm. The
// reference is the plain twin's pass over the same shapes (twins.go), run
// after every op; every build's tree digest must equal the twin's, and
// its image checksum an uncached build's.
//
// The cache is a MemStore with a MemIndex. On the development host the
// cost of creating a file swings between 0.03 and 0.8 ms with the
// kernel's recent history, which moved a DirStore-backed make_cold
// between 185 and 400 ms a pass and its set-up with it; no ratio cancels
// that, because the plain twin has no files to create. The on-disk
// cache is measured per layer instead (detmake.build_ms.*, castore.*_us
// in layers.go), and end to end by serve_evict's daemon.
type makeWorkload struct {
	warm     bool
	shapes   []shape
	want     []bits // per shape: the twin's digest, an uncached build's checksum
	cache    *buildCache
	counts   storeCounts // traced passes only
	verified int
}

func (m *makeWorkload) setup(c *runConfig) error {
	var err error
	if m.shapes, err = makeShapes(c.seed); err != nil {
		return err
	}
	m.want = m.want[:0]
	for _, sh := range m.shapes {
		digest, err := nativeBuild(sh)
		if err != nil {
			return err
		}
		res, err := detmake.Build(detmake.Config{Graph: sh.graph, Sources: sh.sources})
		if err != nil {
			return fmt.Errorf("uncached build of %s: %w", sh.name, err)
		}
		if res.TreeDigest != digest {
			return fmt.Errorf("uncached build of %s: tree digest differs from the plain twin's", sh.name)
		}
		m.want = append(m.want, bits{digest, res.Checksum})
	}
	if m.warm {
		// Pre-warm with one cold pass, then make one pass over the warm
		// store, so that a cache that does not hit fails here and not a
		// thousand ops later.
		m.cache = newMemCache()
		if _, err := m.pass(m.cache, false, nil, 0); err != nil {
			return fmt.Errorf("pre-warming: %w", err)
		}
		if _, err := m.pass(m.cache, true, nil, 0); err != nil {
			return fmt.Errorf("first warm pass: %w", err)
		}
	}
	return nil
}

func (m *makeWorkload) teardown() { m.cache = nil }

// pass builds the five shapes against cache and returns the wall time of
// the builds in ms. Every build must reproduce the reference's bits, and
// be all hits over a warm cache, all executions over a cold one.
func (m *makeWorkload) pass(cache *buildCache, warm bool, tr *tracer, op int) (float64, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	var wall time.Duration
	for i, sh := range m.shapes {
		cfg := detmake.Config{Graph: sh.graph, Sources: sh.sources, Store: cache.store, Index: cache.index}
		id := tr.begin("detmake.build."+sh.name, op, root)
		if tr != nil {
			cfg.Store = &tracedStore{Store: cache.store, tr: tr, counts: &m.counts,
				where: func() (int, int) { return op, id }}
			cfg.Index = &tracedIndex{ActionIndex: cache.index, tr: tr, op: op, parent: id}
			cfg.Actions = tracedActions(detmake.DefaultActions(), tr, op, id)
		}
		start := time.Now()
		res, err := detmake.Build(cfg)
		wall += time.Since(start)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", sh.name, err)
		}
		if got := (bits{res.TreeDigest, res.Checksum}); got != m.want[i] {
			return 0, fmt.Errorf("%s: tree digest or image checksum differs from the reference's", sh.name)
		}
		switch {
		case warm && res.Stats.CacheHits != res.Stats.Tasks:
			return 0, fmt.Errorf("%s: warm build hit %d of %d tasks", sh.name, res.Stats.CacheHits, res.Stats.Tasks)
		case !warm && res.Stats.Executed != res.Stats.Tasks:
			return 0, fmt.Errorf("%s: cold build executed %d of %d tasks", sh.name, res.Stats.Executed, res.Stats.Tasks)
		}
		m.verified++
	}
	return ms(wall), nil
}

func (m *makeWorkload) run(_ mode, d time.Duration, tr *tracer) *window {
	w := &window{}
	cpu, start := selfCPU(), time.Now()
	op := 0
	loop(w, d, func() (float64, error) {
		op++
		cache := m.cache
		if !m.warm {
			cache = newMemCache()
			m.counts.fresh()
		}
		lat, err := m.pass(cache, m.warm, tr, op)
		if err != nil {
			return 0, err
		}
		// The reference, at once after the op; it is short, so three
		// runs of it per op cost nothing and steady its median.
		for i := 0; i < 3; i++ {
			ref, err := m.twinPass()
			if err != nil {
				return 0, err
			}
			w.sample("den:pass", ref)
		}
		return lat, nil
	})
	w.Wall, w.CPU = time.Since(start).Seconds(), selfCPU()-cpu
	return w
}

// twinPass times the plain twin's pass over the five shapes, in ms.
func (m *makeWorkload) twinPass() (float64, error) {
	start := time.Now()
	for i, sh := range m.shapes {
		digest, err := nativeBuild(sh)
		if err != nil {
			return 0, err
		}
		if digest != m.want[i].digest {
			return 0, fmt.Errorf("plain build of %s does not repeat its own digest", sh.name)
		}
	}
	return ms(time.Since(start)), nil
}

func (m *makeWorkload) finish() (int, error) { return m.verified, nil }

func (m *makeWorkload) layer(map[string]float64) {}
