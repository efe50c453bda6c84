// Parmake: the paper's parallel-make scenario (§4.2) on the detmake
// build executor.
//
// The same three compile rules that used to be hand-rolled over forked
// processes are now a declared DAG: each cc rule runs hermetically in
// its own space over a private file-system image seeing only its
// declared source, the object files merge back at the wave boundary,
// and the link step concatenates them. On top of what the hand-rolled
// version showed, the executor adds the paper's punchline: because
// every task's output bits are a pure function of its inputs, results
// are cacheable by construction — the second build is pure cache hits
// and bit-identical, asserted here.
//
// The duplicate-output build bug from the original demo is still a
// reliably detected, deterministic conflict — now caught as a typed
// error when the graph is declared, before anything runs.
//
// Run: go run ./examples/parmake
package main

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/castore"
	"repro/internal/detmake"
)

type rule struct {
	src, obj string
	len      int64 // compile "duration" in millions of instructions
}

var rules = []rule{
	{"main.c", "main.o", 3},
	{"util.c", "util.o", 1},
	{"gfx.c", "gfx.o", 2},
}

func main() {
	actions := detmake.NewActions()
	actions.Register("cc", ccAction)
	actions.Register("link", linkAction)

	sources := map[string][]byte{}
	var tasks []*detmake.Task
	var objs []string
	for _, r := range rules {
		sources[r.src] = []byte("int code_" + r.src + ";\n")
		tasks = append(tasks, &detmake.Task{
			ID: "cc-" + r.obj, Action: "cc", Args: []string{fmt.Sprint(r.len)},
			Inputs: []string{r.src}, Outputs: []string{r.obj},
		})
		objs = append(objs, r.obj)
	}
	tasks = append(tasks, &detmake.Task{
		ID: "link", Action: "link", Inputs: objs, Outputs: []string{"a.out"},
	})
	g, err := detmake.NewGraph(tasks)
	if err != nil {
		fatal(err)
	}

	store := castore.NewMemStore()
	build := func() detmake.Result {
		res, err := detmake.Build(detmake.Config{
			Graph: g, Actions: actions, Sources: sources, Store: store,
		})
		if err != nil {
			fatal(err)
		}
		for _, tr := range res.Tasks {
			verb := "CC"
			if tr.ID == "link" {
				verb = "LD"
			}
			if tr.CacheHit {
				verb = "HIT"
			}
			fmt.Printf("%-3s %s\n", verb, tr.ID)
		}
		return res
	}

	fmt.Println("cold build (every rule compiles in its own private space):")
	cold := build()
	fmt.Printf("makespan %4.1fM instructions\n\n", float64(cold.VT)/1e6)

	// The hand-rolled version asserted this exact binary; it must come
	// out of the DAG executor byte-identical.
	want := ""
	for _, r := range rules {
		want += fmt.Sprintf("ELF{%s: %d bytes compiled}\n", r.src, len(sources[r.src]))
	}
	if string(cold.Outputs["a.out"]) != want {
		fatal(fmt.Errorf("a.out = %q, want %q", cold.Outputs["a.out"], want))
	}
	fmt.Print("a.out:\n" + want + "\n")

	fmt.Println("warm build (same inputs, so every result fetches from the cache):")
	warm := build()
	if warm.Stats.CacheHits != len(tasks) || warm.TreeDigest != cold.TreeDigest ||
		warm.Checksum != cold.Checksum {
		fatal(fmt.Errorf("warm build not a bit-identical full cache hit: %+v", warm.Stats))
	}
	fmt.Printf("%d/%d cache hits, tree and image checksum bit-identical to cold\n\n",
		warm.Stats.CacheHits, len(tasks))

	// The build bug: two rules that write the same output file. The
	// executor rejects the graph with deterministic attribution instead
	// of letting one rule silently clobber the other.
	_, err = detmake.NewGraph([]*detmake.Task{
		{ID: "cc-main", Action: "cc", Args: []string{"1"}, Inputs: []string{"main.c"}, Outputs: []string{"main.o"}},
		{ID: "cc-util", Action: "cc", Args: []string{"1"}, Inputs: []string{"util.c"}, Outputs: []string{"main.o"}},
	})
	var dup *detmake.DuplicateOutputError
	if !errors.As(err, &dup) {
		fatal(fmt.Errorf("duplicate-output bug was not detected: %v", err))
	}
	fmt.Printf("build bug detected: tasks %s and %s both declare %s — conflict reported, nothing runs\n",
		dup.Tasks[0], dup.Tasks[1], dup.Path)
}

// ccAction simulates a compiler: read the one declared source,
// "compile" for the requested duration, write the object file.
func ccAction(c *detmake.TaskCtx) error {
	src := c.Inputs()[0]
	b, err := c.ReadFile(src)
	if err != nil {
		return err
	}
	var units int64
	fmt.Sscan(c.Args()[0], &units)
	c.Tick(units * 1_000_000)
	return c.WriteFile(c.Outputs()[0], []byte(fmt.Sprintf("ELF{%s: %d bytes compiled}", src, len(b))))
}

// linkAction concatenates the objects with newlines, as the original
// example's link step did.
func linkAction(c *detmake.TaskCtx) error {
	var bin []byte
	for _, obj := range c.Inputs() {
		b, err := c.ReadFile(obj)
		if err != nil {
			return err
		}
		bin = append(bin, b...)
		bin = append(bin, '\n')
	}
	c.Tick(int64(len(bin)))
	return c.WriteFile(c.Outputs()[0], bin)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "parmake:", err)
	os.Exit(1)
}
