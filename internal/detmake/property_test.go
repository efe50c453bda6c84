package detmake

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/castore"
)

// randomDAG builds a seeded random layered DAG: a few sources, then
// layers of derive/concat tasks whose inputs are drawn from everything
// produced so far. Task IDs and output paths are deterministic
// functions of position, so a (seed, size) pair names one exact graph.
func randomDAG(r *rand.Rand, layers, perLayer int) ([]*Task, map[string][]byte) {
	sources := map[string][]byte{
		"src/a.txt": []byte("alpha\n"),
		"src/b.txt": []byte("bravo\n"),
		"src/c.txt": []byte("charlie\n"),
	}
	avail := []string{"src/a.txt", "src/b.txt", "src/c.txt"}
	var tasks []*Task
	for l := 0; l < layers; l++ {
		var produced []string
		for i := 0; i < perLayer; i++ {
			id := fmt.Sprintf("t%02d-%02d", l, i)
			out := fmt.Sprintf("out/%s.dat", id)
			nIn := 1 + r.Intn(3)
			var ins []string
			seen := map[string]bool{}
			for len(ins) < nIn {
				p := avail[r.Intn(len(avail))]
				if !seen[p] {
					seen[p] = true
					ins = append(ins, p)
				}
			}
			action := "derive"
			if r.Intn(4) == 0 {
				action = "concat"
			}
			tasks = append(tasks, &Task{
				ID: id, Action: action, Args: []string{id},
				Inputs: ins, Outputs: []string{out},
			})
			produced = append(produced, out)
		}
		avail = append(avail, produced...)
	}
	return tasks, sources
}

func buildOrDie(t testing.TB, cfg Config) Result {
	t.Helper()
	res, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The determinism core: for each seeded DAG, (1) repeated cold runs
// are bit-identical in outputs, image checksum and virtual time;
// (2) a warm run over the cold run's store hits on every task and its
// tree is bit-identical to cold; (3) a partially evicted store falls
// back typed on the missing results and still converges to the same
// bits; (4) results are invariant across Jobs settings.
func TestPropertyColdWarmEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many builds")
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			tasks, sources := randomDAG(r, 3, 4)
			g, err := NewGraph(tasks)
			if err != nil {
				t.Fatal(err)
			}
			nTasks := len(tasks)

			// (1) Cold determinism, including VT.
			cold1 := buildOrDie(t, Config{Graph: g, Sources: sources})
			cold2 := buildOrDie(t, Config{Graph: g, Sources: sources})
			if cold1.TreeDigest != cold2.TreeDigest || cold1.Checksum != cold2.Checksum {
				t.Fatal("repeated cold builds differ in bits")
			}
			if cold1.VT != cold2.VT {
				t.Fatalf("repeated cold builds differ in VT: %d vs %d", cold1.VT, cold2.VT)
			}

			// (2) Warm: all hits, bit-identical, VT deterministic too.
			store := castore.NewMemStore()
			cached := buildOrDie(t, Config{Graph: g, Sources: sources, Store: store})
			if cached.TreeDigest != cold1.TreeDigest || cached.Checksum != cold1.Checksum {
				t.Fatal("caching build differs from uncached build")
			}
			warm1 := buildOrDie(t, Config{Graph: g, Sources: sources, Store: store})
			warm2 := buildOrDie(t, Config{Graph: g, Sources: sources, Store: store})
			if warm1.Stats.CacheHits != nTasks || warm1.Stats.Executed != 0 {
				t.Fatalf("warm stats = %+v, want %d hits", warm1.Stats, nTasks)
			}
			if warm1.TreeDigest != cold1.TreeDigest || warm1.Checksum != cold1.Checksum {
				t.Fatal("warm build differs from cold build in bits")
			}
			if warm1.VT != warm2.VT || warm1.TreeDigest != warm2.TreeDigest {
				t.Fatal("repeated warm builds differ")
			}

			// (3) Mixed eviction: delete a seeded subset of chunks; the
			// affected tasks fall back typed (chunk-missing) and
			// re-execute; bits still converge.
			var keys []castore.Key
			if err := store.Keys(func(k castore.Key, _ castore.BlobInfo) error {
				keys = append(keys, k)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			evict := r.Intn(len(keys)/2) + 1
			for i := 0; i < evict; i++ {
				if err := store.Delete(keys[r.Intn(len(keys))]); err != nil {
					t.Fatal(err)
				}
			}
			mixed := buildOrDie(t, Config{Graph: g, Sources: sources, Store: store})
			if mixed.TreeDigest != cold1.TreeDigest || mixed.Checksum != cold1.Checksum {
				t.Fatal("mixed-eviction build differs in bits")
			}
			if mixed.Stats.CacheHits+mixed.Stats.Executed != nTasks {
				t.Fatalf("mixed stats don't cover the graph: %+v", mixed.Stats)
			}
			for _, tr := range mixed.Tasks {
				if tr.Fallback != "" && tr.Fallback != "chunk-missing" {
					t.Fatalf("eviction fallback = %q, want chunk-missing", tr.Fallback)
				}
			}

			// (4) Jobs invariance on the same DAG.
			j1 := buildOrDie(t, Config{Graph: g, Sources: sources, Jobs: 1})
			if j1.TreeDigest != cold1.TreeDigest || j1.Checksum != cold1.Checksum {
				t.Fatal("jobs=1 build differs in bits")
			}
		})
	}
}

// A corrupted cached chunk is rejected as a typed *ChunkHashError and
// the task re-executes — the final tree is bit-identical to cold, and
// the store heals (the re-executed result is re-recorded).
func TestPropertyCorruptChunkFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tasks, sources := randomDAG(r, 2, 3)
	g, err := NewGraph(tasks)
	if err != nil {
		t.Fatal(err)
	}
	store := castore.NewMemStore()
	cold := buildOrDie(t, Config{Graph: g, Sources: sources, Store: store})

	// Corrupt one task's output chunk: resolve its manifest through the
	// index, then damage the first leaf.
	victim := tasks[r.Intn(len(tasks))]
	key := actionKeyFor(t, g, sources, victim)
	man, ok, err := store.Ref("actions/" + key.String())
	if err != nil || !ok {
		t.Fatalf("victim result not indexed: %v %v", ok, err)
	}
	node, err := castore.GetNode(store, man)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Corrupt(node.LeafRefs[0], []byte("rotten bits")) {
		t.Fatal("victim chunk not in store")
	}

	warm := buildOrDie(t, Config{Graph: g, Sources: sources, Store: store})
	if warm.TreeDigest != cold.TreeDigest || warm.Checksum != cold.Checksum {
		t.Fatal("post-corruption build differs from cold in bits")
	}
	var sawHashFallback bool
	for _, tr := range warm.Tasks {
		if tr.ID == victim.ID {
			if tr.CacheHit {
				t.Fatal("corrupted result was silently reused")
			}
			if tr.Fallback != "chunk-hash" {
				t.Fatalf("victim fallback = %q, want chunk-hash", tr.Fallback)
			}
			sawHashFallback = true
		}
	}
	if !sawHashFallback {
		t.Fatal("victim task not reported")
	}

	// Healed: the next build hits everywhere again.
	healed := buildOrDie(t, Config{Graph: g, Sources: sources, Store: store})
	if healed.Stats.CacheHits != len(tasks) {
		t.Fatalf("healed stats = %+v, want all hits", healed.Stats)
	}
}

// Conflict reports are deterministic: the same broken graph yields the
// same typed report, run after run.
func TestPropertyConflictReportsDeterministic(t *testing.T) {
	actions := DefaultActions()
	actions.Register("mkfile", func(c *TaskCtx) error {
		return c.WriteFile(c.Outputs()[0], []byte("x"))
	})
	g, err := NewGraph([]*Task{
		mkTask("p-file", "mkfile", []string{"prefix"}, nil),
		mkTask("q-under", "mkfile", []string{"prefix/sub"}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	var reports []string
	for i := 0; i < 3; i++ {
		_, err := Build(Config{Graph: g, Actions: actions})
		var conflict *OutputConflictError
		if !errors.As(err, &conflict) {
			t.Fatalf("run %d: %v, want *OutputConflictError", i, err)
		}
		reports = append(reports, err.Error())
	}
	if !reflect.DeepEqual(reports[0], reports[1]) || !reflect.DeepEqual(reports[1], reports[2]) {
		t.Fatalf("conflict reports varied: %v", reports)
	}
}

// noisyActions wraps derive and concat so that each task, before doing
// its real work, litters its image with seeded scratch: files and
// directories named like other tasks' declared outputs, names its
// siblings pick from the same small pool (as a file by one, a directory
// by another), and files inside its own output's directory. Only a
// name the task's own image already uses the other way — file for
// directory — is passed over.
func noisyActions(seed int64, tasks []*Task) *Actions {
	var allOuts []string
	for _, t := range tasks {
		allOuts = append(allOuts, t.Outputs...)
	}
	quiet, noisy := DefaultActions(), NewActions()
	for _, name := range []string{"derive", "concat"} {
		body, _ := quiet.Lookup(name)
		noisy.Register(name, func(c *TaskCtx) error {
			h := fnv.New64a()
			h.Write([]byte(c.TaskID()))
			r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
			// What is already a file or a directory in this image: scratch
			// goes anywhere that contradicts neither.
			file, dir := make(map[string]bool), make(map[string]bool)
			add := func(p string) {
				file[p] = true
				for q := parentDir(p); q != ""; q = parentDir(q) {
					dir[q] = true
				}
			}
			for _, p := range append(c.Inputs(), c.Outputs()...) {
				add(p)
			}
			for i, n := 0, 3+r.Intn(4); i < n; i++ {
				p := allOuts[r.Intn(len(allOuts))]
				switch r.Intn(5) {
				case 0: // a file where another task's output goes
				case 1: // a directory there
					p += "/junk"
				case 2:
					p = fmt.Sprintf("tmp/shared-%d", r.Intn(3))
				case 3:
					p = fmt.Sprintf("tmp/shared-%d/junk", r.Intn(3))
				case 4:
					p = parentDir(c.Outputs()[0]) + "/junk-" + c.TaskID()
				}
				if file[p] || dir[p] || file[parentDir(p)] {
					continue
				}
				junk := make([]byte, 1+r.Intn(200))
				r.Read(junk)
				if err := c.WriteFile(p, junk); err != nil {
					return fmt.Errorf("scratch %q: %w", p, err)
				}
				add(p)
			}
			return body(c)
		})
	}
	return noisy
}

// What a task leaves in its image besides its declared outputs never
// reaches the build: over the seeded DAGs, a build whose every task
// litters scratch over its siblings' names produces the quiet build's
// outputs, tree and master image, executed or fetched, at any Jobs.
func TestPropertyScratchNeverEscapes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tasks, sources := randomDAG(rand.New(rand.NewSource(seed)), 3, 4)
		g := mustGraph(t, tasks)
		for _, jobs := range []int{1, 8} {
			what := fmt.Sprintf("seed=%d jobs=%d", seed, jobs)
			quiet := buildOrDie(t, Config{Graph: g, Sources: sources, Jobs: jobs})
			cfg := Config{
				Graph: g, Actions: noisyActions(seed, tasks), Sources: sources,
				Store: castore.NewMemStore(), Jobs: jobs,
			}
			cold := buildOrDie(t, cfg)
			warm := buildOrDie(t, cfg)
			if cold.Stats.Executed != len(tasks) || warm.Stats.CacheHits != len(tasks) {
				t.Fatalf("%s: cold %+v, warm %+v", what, cold.Stats, warm.Stats)
			}
			wantSameBits(t, what+" cold", cold, quiet)
			wantSameBits(t, what+" warm", warm, quiet)
		}
	}
}

// actionKeyFor recomputes a task's cache key against the given source
// tree by replaying input hashes through the graph (test helper).
func actionKeyFor(t *testing.T, g *Graph, sources map[string][]byte, victim *Task) castore.Key {
	t.Helper()
	res, err := Build(Config{Graph: g, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	hash := make(map[string]castore.Key)
	for p, b := range sources {
		hash[p] = castore.KeyOf(b)
	}
	for p, b := range res.Outputs {
		hash[p] = castore.KeyOf(b)
	}
	return actionKey(victim, hash, DefaultTaskFSSize)
}
