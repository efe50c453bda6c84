// Detmake is the deterministic parallel build executor over a
// content-addressed build cache: it parses a small declarative build
// file, runs every task hermetically inside the emulated kernel
// (private file-system image per task, outputs merged at quiescent
// points), and keys each result by the content hash of (action, input
// tree) into the checkpoint store. A warm store makes the second run
// of an unchanged build pure cache fetches — bit-identical to cold
// execution by the determinism guarantee, and verified so on every
// fetch.
//
// Usage:
//
//	go run ./cmd/detmake -f build.dmk -store /tmp/dmk-cache -j 8
//
// Build file format, one directive per line ('#' comments):
//
//	file <path> <text...>                      a source file (text + newline)
//	task <id> <action>[:<arg>,...] <out[,out]> [<- <in> ...]
//
// Actions are the built-in detmake set (gen, concat, upper, derive,
// chunk). With -store the cache persists across runs: rerun the same
// command and every task reports HIT. Without it an in-memory store
// still deduplicates identical tasks within the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/castore"
	"repro/internal/detmake"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("detmake", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		buildFile = fl.String("f", "build.dmk", "build file")
		storeDir  = fl.String("store", "", "build-cache directory (empty: in-memory, per-run)")
		jobs      = fl.Int("j", detmake.DefaultJobs, "parallel task slots")
		showOut   = fl.Bool("print", false, "print every output file after the build")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}

	src, err := os.ReadFile(*buildFile)
	if err != nil {
		fmt.Fprintf(stderr, "detmake: %v\n", err)
		return 1
	}
	graph, sources, err := parseBuildFile(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "detmake: %s: %v\n", *buildFile, err)
		return 1
	}

	cfg := detmake.Config{Graph: graph, Sources: sources, Jobs: *jobs}
	if *storeDir != "" {
		store, err := castore.OpenDirStore(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "detmake: %v\n", err)
			return 1
		}
		cfg.Store = store
	} else {
		cfg.Store = castore.NewMemStore()
	}

	start := time.Now()
	res, err := detmake.Build(cfg)
	wall := time.Since(start)
	for _, tr := range res.Tasks {
		switch {
		case tr.CacheHit:
			fmt.Fprintf(stdout, "HIT  %s\n", tr.ID)
		case tr.Fallback != "":
			fmt.Fprintf(stdout, "EXEC %s (cache rejected: %s)\n", tr.ID, tr.Fallback)
		default:
			fmt.Fprintf(stdout, "EXEC %s\n", tr.ID)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "detmake: %v\n", err)
		return 1
	}
	st := res.Stats
	fmt.Fprintf(stdout, "%d tasks in %d waves: %d executed, %d cache hits (%d fallbacks)\n",
		st.Tasks, st.Waves, st.Executed, st.CacheHits, st.Fallbacks)
	fmt.Fprintf(stdout, "fetched %d B, stored %d B, vt %d, wall %s\n",
		st.Fetched, st.Stored, res.VT, wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "tree %s checksum %016x\n", res.TreeDigest, res.Checksum)
	if *showOut {
		for _, t := range graph.Tasks() {
			for _, p := range t.Outputs {
				fmt.Fprintf(stdout, "-- %s --\n%s", p, res.Outputs[p])
			}
		}
	}
	return 0
}

// parseBuildFile reads the declarative build format described in the
// package comment. A build file is the user's, not the store's, but the
// parser still treats it as hostile: an error quotes at most 64 bytes of
// any field, and what it allocates grows with the file, not faster.
func parseBuildFile(src string) (*detmake.Graph, map[string][]byte, error) {
	sources := make(map[string][]byte)
	var tasks []*detmake.Task
	for lineNo, more := 1, true; more; lineNo++ {
		var line string
		line, src, more = strings.Cut(src, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "file":
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("line %d: file needs a path", lineNo)
			}
			rest := strings.TrimSpace(strings.TrimPrefix(line, "file"))
			rest = strings.TrimSpace(strings.TrimPrefix(rest, fields[1]))
			if _, dup := sources[fields[1]]; dup {
				return nil, nil, fmt.Errorf("line %d: duplicate file %.64q", lineNo, fields[1])
			}
			sources[fields[1]] = []byte(rest + "\n")
		case "task":
			t, err := parseTask(fields[1:])
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			tasks = append(tasks, t)
		default:
			return nil, nil, fmt.Errorf("line %d: unknown directive %.64q", lineNo, fields[0])
		}
	}
	g, err := detmake.NewGraph(tasks)
	if err != nil {
		return nil, nil, err
	}
	return g, sources, nil
}

// parseTask decodes "ID ACTION[:arg,...] OUT[,OUT] [<- IN...]".
func parseTask(fields []string) (*detmake.Task, error) {
	if len(fields) < 3 {
		return nil, fmt.Errorf("task needs: id action out[,out] [<- in...]")
	}
	action, args, hasArgs := strings.Cut(fields[1], ":")
	t := &detmake.Task{ID: fields[0], Action: action, Outputs: strings.Split(fields[2], ",")}
	if hasArgs {
		t.Args = strings.Split(args, ",")
	}
	rest := fields[3:]
	if len(rest) > 0 {
		if rest[0] != "<-" {
			return nil, fmt.Errorf("task %.64q: expected <- before inputs, got %.64q", t.ID, rest[0])
		}
		t.Inputs = rest[1:]
	}
	return t, nil
}
