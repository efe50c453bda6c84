package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const demoBuild = `# tiny C-like build
file main.c int main;
file util.c int util;

task cc-main upper main.o <- main.c
task cc-util upper util.o <- util.c
task link concat a.out <- main.o util.o
`

func TestParseBuildFile(t *testing.T) {
	g, sources, err := parseBuildFile(demoBuild)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks()) != 3 {
		t.Fatalf("parsed %d tasks, want 3", len(g.Tasks()))
	}
	if string(sources["main.c"]) != "int main;\n" {
		t.Fatalf("main.c = %q", sources["main.c"])
	}
	link, ok := g.Task("link")
	if !ok || link.Action != "concat" || len(link.Inputs) != 2 {
		t.Fatalf("link = %+v", link)
	}
}

// badBuilds are build files parseBuildFile must refuse.
var badBuilds = []string{
	"frob x y\n",
	"file\n",
	"file a.c x\nfile a.c y\n",
	"task t1\n",
	"task t1 gen out in-without-arrow\n",
}

func TestParseBuildFileErrors(t *testing.T) {
	for _, bad := range badBuilds {
		if _, _, err := parseBuildFile(bad); err == nil {
			t.Fatalf("parseBuildFile(%q) accepted", bad)
		}
	}
}

// FuzzBuildFile throws arbitrary text at parseBuildFile. Whatever
// arrives, it never panics; it returns a graph and its sources or an
// error, never both or neither; an error quotes at most 64 bytes of any
// field, so it stays short however long the field; and what the parse
// allocates is at most a small multiple of the file plus a constant.
// Seeded with the store_v1 build file, the files the parse tests use
// and the hostile fields that used to be quoted whole.
func FuzzBuildFile(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "castore", "testdata", "store_v1.dmk"))
	if err != nil {
		f.Fatal(err)
	}
	for _, src := range append([]string{string(golden), demoBuild}, badBuilds...) {
		f.Add(src)
	}
	// Bytes %q escapes four for one: quoted whole, a directive, a word
	// where "<-" belongs or a bad output path cost 22–32 allocated bytes
	// per byte; a task ID or a duplicate file went whole into the error.
	escaped := strings.Repeat("\x01", 20000)
	f.Add(escaped + " x\n")
	f.Add("task t gen out " + escaped + "\n")
	f.Add("task gen out " + escaped + "\n")
	f.Add("task " + escaped + " gen out oops\n")
	f.Add("task " + escaped + " gen a\ntask " + escaped + " gen b\n")
	f.Add("file " + escaped + " a\nfile " + escaped + " b\n")

	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, sources, err := parseBuildFile(src)
		runtime.ReadMemStats(&after)
		if (err == nil) != (g != nil && sources != nil) {
			t.Fatalf("graph %v, sources %v, err %v: want a graph or an error", g != nil, sources != nil, err)
		}
		// An error names two fields at most, 64 runes of each, and %q
		// spells a rune in ten bytes at most.
		if err != nil && len(err.Error()) > 2<<10 {
			t.Fatalf("a %d-byte file drew a %d-byte error: %.200q", len(src), len(err.Error()), err)
		}
		// The seeds allocate at most 25 bytes per byte of file, all of it
		// under 3 KiB; the slack is for whatever else the process
		// allocated meanwhile (TotalAlloc is process-wide).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(src))+64<<10 {
			t.Fatalf("parsing %d bytes allocated %d", len(src), grew)
		}
	})
}

func TestParseTaskArgs(t *testing.T) {
	task, err := parseTask([]string{"t", "gen:hello,world", "out.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if task.Action != "gen" || len(task.Args) != 2 || task.Args[1] != "world" {
		t.Fatalf("task = %+v", task)
	}
}

// Cold run executes everything; a second run over the same -store
// directory is pure cache hits with the identical tree digest.
func TestColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	bf := filepath.Join(dir, "build.dmk")
	if err := os.WriteFile(bf, []byte(demoBuild), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "cache")

	runOnce := func() string {
		var out, errOut strings.Builder
		if code := run([]string{"-f", bf, "-store", store}, &out, &errOut); code != 0 {
			t.Fatalf("run failed (%d): %s", code, errOut.String())
		}
		return out.String()
	}

	cold := runOnce()
	if !strings.Contains(cold, "EXEC cc-main") || !strings.Contains(cold, "3 executed, 0 cache hits") {
		t.Fatalf("cold output:\n%s", cold)
	}
	warm := runOnce()
	if !strings.Contains(warm, "HIT  link") || !strings.Contains(warm, "0 executed, 3 cache hits") {
		t.Fatalf("warm output:\n%s", warm)
	}
	tree := regexp.MustCompile(`tree \S+ checksum \S+`)
	if tree.FindString(cold) != tree.FindString(warm) {
		t.Fatalf("warm digest differs from cold:\ncold: %s\nwarm: %s",
			tree.FindString(cold), tree.FindString(warm))
	}
}

func TestBuildErrorIsReported(t *testing.T) {
	dir := t.TempDir()
	bf := filepath.Join(dir, "cycle.dmk")
	cycle := "task a concat x <- y\ntask b concat y <- x\n"
	if err := os.WriteFile(bf, []byte(cycle), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-f", bf}, &out, &errOut); code == 0 {
		t.Fatal("cyclic build succeeded")
	}
	if !strings.Contains(errOut.String(), "cycle") {
		t.Fatalf("stderr = %q, want cycle report", errOut.String())
	}
}
