package detmake

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/castore"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// compileGraph is the shared three-stage pipeline: two "compiles" from
// sources, a "link" concatenating the objects.
func compileGraph(t *testing.T) (*Graph, map[string][]byte) {
	t.Helper()
	g, err := NewGraph([]*Task{
		mkTask("cc-main", "upper", []string{"main.o"}, []string{"main.c"}),
		mkTask("cc-util", "upper", []string{"util.o"}, []string{"util.c"}),
		mkTask("link", "concat", []string{"a.out"}, []string{"main.o", "util.o"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, map[string][]byte{
		"main.c": []byte("int main;\n"),
		"util.c": []byte("int util;\n"),
	}
}

func TestBuildBasic(t *testing.T) {
	g, srcs := compileGraph(t)
	res, err := Build(Config{Graph: g, Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.Outputs["a.out"]); got != "INT MAIN;\nINT UTIL;\n" {
		t.Fatalf("a.out = %q", got)
	}
	if res.Stats.Executed != 3 || res.Stats.CacheHits != 0 || res.Stats.Waves != 2 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

// Cold then warm over one store: the warm build fetches every result
// and the final tree — logical digest and raw image checksum — is
// bit-identical to the cold one.
func TestWarmBuildBitIdentical(t *testing.T) {
	g, srcs := compileGraph(t)
	store := castore.NewMemStore()
	cold, err := Build(Config{Graph: g, Sources: srcs, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Build(Config{Graph: g, Sources: srcs, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != 3 || warm.Stats.Executed != 0 {
		t.Fatalf("warm stats = %+v, want 3 hits 0 executed", warm.Stats)
	}
	if warm.TreeDigest != cold.TreeDigest {
		t.Fatalf("tree digests differ: cold %s warm %s", cold.TreeDigest, warm.TreeDigest)
	}
	if warm.Checksum != cold.Checksum {
		t.Fatalf("image checksums differ: cold %#x warm %#x", cold.Checksum, warm.Checksum)
	}
	if warm.Stats.Fetched == 0 {
		t.Fatal("warm build fetched nothing")
	}
}

// Results are bit-identical at every Jobs setting; only the modeled
// makespan (VT) may differ.
func TestJobsInvariance(t *testing.T) {
	g, srcs := compileGraph(t)
	base, err := Build(Config{Graph: g, Sources: srcs, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		res, err := Build(Config{Graph: g, Sources: srcs, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if res.TreeDigest != base.TreeDigest || res.Checksum != base.Checksum {
			t.Fatalf("jobs=%d: result differs from jobs=1", jobs)
		}
	}
}

// An incremental change to one source re-executes exactly that
// source's cone and matches a from-scratch build of the same tree.
func TestIncrementalCone(t *testing.T) {
	g, srcs := compileGraph(t)
	store := castore.NewMemStore()
	if _, err := Build(Config{Graph: g, Sources: srcs, Store: store}); err != nil {
		t.Fatal(err)
	}
	changed := map[string][]byte{"main.c": []byte("int main2;\n"), "util.c": srcs["util.c"]}
	inc, err := Build(Config{Graph: g, Sources: changed, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	cone := g.Cone("main.c")
	if inc.Stats.Executed != len(cone) {
		t.Fatalf("incremental executed %d tasks, want cone %v", inc.Stats.Executed, cone)
	}
	fresh, err := Build(Config{Graph: g, Sources: changed})
	if err != nil {
		t.Fatal(err)
	}
	if inc.TreeDigest != fresh.TreeDigest || inc.Checksum != fresh.Checksum {
		t.Fatal("incremental result differs from from-scratch build")
	}
}

// An action reading a path that exists in the build tree but is not
// declared fails typed — even though the action swallows the error.
func TestUndeclaredInputRead(t *testing.T) {
	actions := DefaultActions()
	actions.Register("sneaky", func(c *TaskCtx) error {
		b, err := c.ReadFile("secret.txt") // present in tree, undeclared
		if err != nil {
			b = []byte("fallback")
		}
		return c.WriteFile(c.Outputs()[0], b)
	})
	g, err := NewGraph([]*Task{mkTask("spy", "sneaky", []string{"out"}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(Config{
		Graph:   g,
		Actions: actions,
		Sources: map[string][]byte{"secret.txt": []byte("hidden")},
	})
	var undeclared *UndeclaredInputError
	if !errors.As(err, &undeclared) {
		t.Fatalf("Build = %v, want *UndeclaredInputError", err)
	}
	if undeclared.Task != "spy" || undeclared.Path != "secret.txt" {
		t.Fatalf("violation = %+v", undeclared)
	}
}

// Reading a genuinely absent path is a plain ErrNotFound, not a
// hermeticity violation.
func TestAbsentReadIsNotViolation(t *testing.T) {
	actions := DefaultActions()
	actions.Register("probe", func(c *TaskCtx) error {
		if _, err := c.ReadFile("no-such-file"); !errors.Is(err, fs.ErrNotFound) {
			return fmt.Errorf("probe saw %v, want ErrNotFound", err)
		}
		return c.WriteFile(c.Outputs()[0], []byte("ok"))
	})
	g, err := NewGraph([]*Task{mkTask("p", "probe", []string{"out"}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Config{Graph: g, Actions: actions}); err != nil {
		t.Fatal(err)
	}
}

// A task that fills its hermetic image fails with a typed error that
// unwraps to fs.ErrNoSpace, and the failing wave leaves nothing behind:
// the committed tree is exactly the pre-wave state.
func TestNoSpaceLeavesNoHalfVisibleOutputs(t *testing.T) {
	actions := DefaultActions()
	actions.Register("bloat", func(c *TaskCtx) error {
		if err := c.WriteFile("partial", []byte("written before running out")); err != nil {
			return err
		}
		// Fill the image in chunks until allocation fails for real.
		for i := 0; ; i++ {
			if err := c.WriteFile(fmt.Sprintf("fill/%03d", i), make([]byte, 64<<10)); err != nil {
				return err
			}
		}
	})
	g, err := NewGraph([]*Task{
		mkTask("gen-ok", "gen", []string{"stable"}, nil),
		mkTask("huge", "bloat", []string{"big", "partial"}, []string{"stable"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srcOnly, err := Build(Config{
		Graph:   mustGraph(t, []*Task{mkTask("gen-ok", "gen", []string{"stable"}, nil)}),
		Actions: actions,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(Config{Graph: g, Actions: actions})
	var taskErr *TaskError
	if !errors.As(err, &taskErr) || !errors.Is(err, fs.ErrNoSpace) {
		t.Fatalf("Build = %v, want *TaskError wrapping fs.ErrNoSpace", err)
	}
	if taskErr.Task != "huge" {
		t.Fatalf("failed task = %q", taskErr.Task)
	}
	// Wave 0 (gen-ok) committed; wave 1 (huge) must be invisible.
	if _, ok := res.Outputs["big"]; ok {
		t.Fatal("failed task's output committed")
	}
	if _, ok := res.Outputs["partial"]; ok {
		t.Fatal("failed task's partial output committed")
	}
	if string(res.Outputs["stable"]) == "" {
		t.Fatal("earlier wave's output missing from result")
	}
	if res.TreeDigest != srcOnly.TreeDigest {
		t.Fatal("failed build's tree differs from the committed prefix")
	}

	// Declared inputs that cannot fit the task's image fail the same way,
	// and in the same place: the child formats its own image and writes
	// its inputs into it, so it is the task that runs out of space (the
	// root used to, staging, with an untyped error). The sibling that
	// shares the wave commits nothing.
	big := map[string][]byte{"big1.src": make([]byte, 2200<<10), "big2.src": make([]byte, 2200<<10)}
	g = mustGraph(t, []*Task{
		mkTask("a-ok", "gen", []string{"stable"}, nil),
		mkTask("eat", "concat", []string{"big.out"}, []string{"big1.src", "big2.src"}),
	})
	res, err = Build(Config{Graph: g, Sources: big})
	if !errors.As(err, &taskErr) || taskErr.Task != "eat" || !errors.Is(err, fs.ErrNoSpace) {
		t.Fatalf("oversized input: Build = %v, want *TaskError for eat wrapping fs.ErrNoSpace", err)
	}
	if len(res.Outputs) != 0 || len(res.Tasks) != 0 || res.Checksum == 0 {
		t.Fatalf("oversized input: wave left outputs %v, tasks %v, checksum %#x", res.Outputs, res.Tasks, res.Checksum)
	}
}

// A task that fills its image to the last extent, shrugs and returns nil
// has written its declared output, and succeeds: the result message goes
// over the image, not into it. (While the outcome was a status *file* the
// task faulted writing it.) The outputs are what the cache keys promise:
// the same bytes at every run.
func TestFullImageStillReports(t *testing.T) {
	actions := DefaultActions()
	actions.Register("hog", func(c *TaskCtx) error {
		if err := c.WriteFile(c.Outputs()[0], []byte("kept")); err != nil {
			return err
		}
		for chunk, i := 64<<10, 0; chunk > 0; i++ {
			if err := c.WriteFile(fmt.Sprintf("fill/%03d", i), make([]byte, chunk)); err != nil {
				if !errors.Is(err, fs.ErrNoSpace) {
					return err
				}
				chunk /= 2 // down to the last byte or the last inode
			}
		}
		return nil
	})
	cfg := Config{Graph: mustGraph(t, []*Task{mkTask("h", "hog", []string{"out"}, nil)}),
		Actions: actions}
	res := buildOrDie(t, cfg)
	if string(res.Outputs["out"]) != "kept" {
		t.Fatalf("out = %q", res.Outputs["out"])
	}
	wantSameBits(t, "second run", buildOrDie(t, cfg), res)
}

// Sibling divergence the static check cannot see — one task's output
// file is another's output directory prefix — surfaces as a typed
// conflict with deterministic attribution at the reconciliation point.
func TestSiblingOutputConflict(t *testing.T) {
	actions := DefaultActions()
	actions.Register("mkfile", func(c *TaskCtx) error {
		return c.WriteFile(c.Outputs()[0], []byte("file"))
	})
	g, err := NewGraph([]*Task{
		mkTask("a-file", "mkfile", []string{"clash"}, nil),
		mkTask("b-nested", "mkfile", []string{"clash/deep.o"}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(Config{Graph: g, Actions: actions})
	var conflict *OutputConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("Build = %v, want *OutputConflictError", err)
	}
	if conflict.Path != "clash" || conflict.Tasks != [2]string{"a-file", "b-nested"} {
		t.Fatalf("conflict = %+v", conflict)
	}
}

// A task that never writes a declared output fails typed.
func TestMissingOutput(t *testing.T) {
	actions := DefaultActions()
	actions.Register("lazy", func(c *TaskCtx) error {
		return c.WriteFile(c.Outputs()[0], []byte("only the first"))
	})
	g, err := NewGraph([]*Task{mkTask("l", "lazy", []string{"one", "two"}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(Config{Graph: g, Actions: actions})
	var miss *MissingOutputError
	if !errors.As(err, &miss) {
		t.Fatalf("Build = %v, want *MissingOutputError", err)
	}
	if miss.Task != "l" || miss.Path != "two" {
		t.Fatalf("missing = %+v", miss)
	}
}

// collectForged runs a root that forks one child which leaves msg at
// stageBase and n in its Ret register — anything a hostile task could
// leave there — and collects it the way a build does. sum is the master
// checksum the root takes on its last line.
func collectForged(t *testing.T, task *Task, msg []byte, n uint64) (out map[string][]byte, err error, sum uint64) {
	t.Helper()
	const size = DefaultTaskFSSize
	b := &builder{}
	res := kernel.New(kernel.Config{}).Run(func(env *kernel.Env) {
		master := fs.Format(env, masterBase, DefaultMasterFSSize)
		forge := func(child *kernel.Env) {
			child.Zero(stageBase, size, vm.PermRW)
			child.Write(stageBase, msg)
			child.SetRet(n)
		}
		if err := env.Put(1, kernel.PutOpts{Regs: &kernel.Regs{Entry: forge}, Start: true}); err != nil {
			panic(err)
		}
		out, err = b.collect(env, 1, task)
		sum = master.Checksum()
	}, 0)
	if res.Status != kernel.StatusHalted {
		t.Fatalf("root stopped %v (%v): it must halt, not fault", res.Status, res.Err)
	}
	return out, err, sum
}

// The region a task hands back is bytes another space wrote. Whatever
// they say, the root decodes them into the declared outputs or fails the
// task typed — it never follows a length or a count out of the window,
// and it always reaches the master checksum. (The test used to scribble
// the image's superblock from inside an action; the root no longer reads
// an image, so that case now has to pass or fail the task in the child —
// the last case below.)
func TestScribbledResultImageFailsTheTask(t *testing.T) {
	const size = DefaultTaskFSSize
	task := mkTask("s", "gen", []string{"out"}, nil)
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	good := encodeMessage(outcomeOK, []taskFile{{"out", []byte("written")}})

	out, err, sum := collectForged(t, task, good, uint64(len(good)))
	if err != nil || string(out["out"]) != "written" || sum == 0 {
		t.Fatalf("well-formed message: out = %q, err = %v, checksum %#x", out["out"], err, sum)
	}

	for _, tc := range []struct {
		name string
		msg  []byte
		n    uint64 // 0: len(msg)
	}{
		{"unknown outcome", encodeMessage(9, []taskFile{{Path: "x"}}), 0},
		{"no outputs where one is declared", encodeMessage(outcomeOK, nil), 0},
		{"two outputs where one is declared", encodeMessage(outcomeOK, []taskFile{{Path: "out"}, {Path: "out2"}}), 0},
		{"a path that is not the declared one", encodeMessage(outcomeOK, []taskFile{{"other", []byte("written")}}), 0},
		{"a failure that names nothing", encodeMessage(outcomeMissing, nil), 0},
		{"a failure that names two things", encodeMessage(outcomeErr, []taskFile{{Path: "a"}, {Path: "b"}}), 0},
		{"a body length past the window", u32(append(u32(u32(u32(nil, outcomeOK), 1), 3), "out"...), 1000), 0},
		{"a path length past the window", u32(u32(u32(nil, outcomeOK), 1), 0xd7d7d7d7), 0},
		{"a count past the window", u32(u32(nil, outcomeOK), 0xffffffff), 0},
		{"trailing bytes", append(bytes.Clone(good), 0), 0},
		{"trailing bytes after a failure report", append(encodeMessage(outcomeErr, []taskFile{{Path: "boom"}}), 0), 0},
		{"cut inside the outcome word", good, 2},
		{"cut inside a body", good, uint64(len(good)) - 1},
		{"empty", nil, 0},
		{"a message length above DefaultTaskFSSize", good, size + 1},
		{"a message length of all ones", good, ^uint64(0)},
	} {
		n := tc.n
		if n == 0 {
			n = uint64(len(tc.msg))
		}
		out, err, sum := collectForged(t, task, tc.msg, n)
		var te *TaskError
		if !errors.As(err, &te) || te.Task != "s" || !strings.Contains(err.Error(), "result message corrupt") {
			t.Errorf("%s: collect = %v, %v; want *TaskError for s: result message corrupt", tc.name, out, err)
		}
		if sum == 0 {
			t.Errorf("%s: the root did not reach the master checksum", tc.name)
		}
	}

	// In the machine: an action that scribbles over its own image's region
	// table (fs's superblock layout: the region count at 40, the table of
	// {start, size} pairs at 64) after writing its output. The epilogue
	// reads the output through the handle it made, so the task either
	// reports the right bytes or fails typed; the build machine halts.
	actions := DefaultActions()
	actions.Register("scribble", func(c *TaskCtx) error {
		if err := c.WriteFile(c.Outputs()[0], []byte("written")); err != nil {
			return err
		}
		c.env.WriteU32(stageBase+40, 2)
		c.env.WriteU32(stageBase+64+4, 0xd7d7d7d7) // region 0 runs 3.6 GB past the image
		c.env.WriteU32(stageBase+64+8, 0xd7d7d7d7) // and region 1 chains on from there
		c.env.WriteU32(stageBase+64+12, 1)
		return nil
	})
	res, err := Build(Config{Graph: mustGraph(t, []*Task{mkTask("s", "scribble", []string{"out"}, nil)}), Actions: actions})
	var te *TaskError
	if err == nil && string(res.Outputs["out"]) != "written" || err != nil && !errors.As(err, &te) {
		t.Fatalf("scribbling action: out = %q, err = %v; want the right bytes or a *TaskError", res.Outputs["out"], err)
	}
	if res.Checksum == 0 {
		t.Fatal("build machine did not reach the master checksum")
	}
}

// Scratch files written by an action never escape its space: two
// siblings may use the same scratch names, and a scratch file or
// directory may carry the name of a sibling's declared output, without
// conflicting and without the build's result depending on it.
func TestScratchIsInvisible(t *testing.T) {
	actions := DefaultActions()
	// scratchy writes Args[1] to the scratch path Args[0], reads it back
	// and copies it to its output.
	actions.Register("scratchy", func(c *TaskCtx) error {
		scratch := c.Args()[0]
		if err := c.WriteFile(scratch, []byte(c.Args()[1])); err != nil {
			return err
		}
		b, err := c.ReadFile(scratch)
		if err != nil {
			return err
		}
		return c.WriteFile(c.Outputs()[0], b)
	})
	scratchy := func(id, out, scratch, body string) *Task {
		return &Task{ID: id, Action: "scratchy", Args: []string{scratch, body}, Outputs: []string{out}}
	}
	gen := func(id, out, body string) *Task {
		return &Task{ID: id, Action: "gen", Args: []string{body}, Outputs: []string{out}}
	}
	build := func(tasks ...*Task) Result {
		t.Helper()
		return buildOrDie(t, Config{Graph: mustGraph(t, tasks), Actions: actions})
	}

	res := build(scratchy("s1", "o1", "tmp/scratch.txt", "s1"), scratchy("s2", "o2", "tmp/scratch.txt", "s2"))
	if string(res.Outputs["o1"]) != "s1" || string(res.Outputs["o2"]) != "s2" {
		t.Fatalf("outputs = %q %q", res.Outputs["o1"], res.Outputs["o2"])
	}
	if _, ok := res.Outputs["tmp/scratch.txt"]; ok {
		t.Fatal("scratch escaped the task space")
	}

	// A scratch directory x/ beside a sibling whose declared output is x.
	res = build(scratchy("s1", "o1", "x/tmp.txt", "s1"), gen("s2", "x", "s2"))
	if string(res.Outputs["o1"]) != "s1" || string(res.Outputs["x"]) != "s2\n" {
		t.Fatalf("outputs = %q %q", res.Outputs["o1"], res.Outputs["x"])
	}

	// A scratch file x beside a sibling whose declared output is x,
	// whichever of the two sorts first. The commit order is task-ID
	// order, so the master image (Checksum) is compared with the same
	// IDs writing their scratch elsewhere; the tree is compared across
	// the two orders as well.
	var trees []Result
	for _, ids := range [][2]string{{"a", "b"}, {"b", "a"}} {
		noisy := build(scratchy(ids[0], "x.tmp", "x", "scratch"), gen(ids[1], "x", "out"))
		quiet := build(scratchy(ids[0], "x.tmp", "elsewhere", "scratch"), gen(ids[1], "x", "out"))
		if string(noisy.Outputs["x"]) != "out\n" || string(noisy.Outputs["x.tmp"]) != "scratch" {
			t.Fatalf("scratch=%s out=%s: outputs = %q %q", ids[0], ids[1], noisy.Outputs["x"], noisy.Outputs["x.tmp"])
		}
		wantSameBits(t, fmt.Sprintf("scratch=%s out=%s", ids[0], ids[1]), noisy, quiet)
		trees = append(trees, noisy)
	}
	if !reflect.DeepEqual(trees[0].Outputs, trees[1].Outputs) || trees[0].TreeDigest != trees[1].TreeDigest {
		t.Fatal("the built tree depends on which sibling sorts first")
	}
}

// wantSameBits fails unless two builds produced the same outputs, tree
// and master image.
func wantSameBits(t *testing.T, what string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: Outputs differ", what)
	}
	if got.TreeDigest != want.TreeDigest {
		t.Fatalf("%s: TreeDigest = %s, want %s", what, got.TreeDigest, want.TreeDigest)
	}
	if got.Checksum != want.Checksum {
		t.Fatalf("%s: Checksum = %#x, want %#x", what, got.Checksum, want.Checksum)
	}
}

// Nested output paths work end to end (directories are created on
// stage, by the task's own writes, and on commit).
func TestNestedOutputPaths(t *testing.T) {
	g, err := NewGraph([]*Task{
		mkTask("c", "upper", []string{"obj/deep/x.o"}, []string{"src/x.c"}),
		mkTask("l", "concat", []string{"bin/a.out"}, []string{"obj/deep/x.o"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(Config{Graph: g, Sources: map[string][]byte{"src/x.c": []byte("zz\n")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Outputs["bin/a.out"]) != "ZZ\n" {
		t.Fatalf("bin/a.out = %q", res.Outputs["bin/a.out"])
	}
}

// Declared paths that cannot coexist in one tree — an output that is a
// directory of, or lies beneath, a source or another task's output — are
// rejected typed before anything runs. They used to fail inside the
// commit loop with a bare fs error, after sibling outputs of the same
// wave had already reached the master and Result.Outputs.
func TestOverlappingPathsRejectedBeforeCommit(t *testing.T) {
	srcs := map[string][]byte{"src/a.c": []byte("int a;\n")}
	cases := []struct {
		name     string
		tasks    []*Task
		sources  map[string][]byte
		conflict *OutputConflictError // nil: want ErrBadTask
	}{
		{"sibling output is a directory of a source", []*Task{
			mkTask("a", "gen", []string{"out/ok.txt"}, nil),
			mkTask("b", "gen", []string{"src"}, nil),
		}, srcs, nil},
		{"output lies beneath a source file", []*Task{
			mkTask("a", "gen", []string{"out/ok.txt"}, nil),
			mkTask("b", "gen", []string{"src/a.c/gen.h"}, nil),
		}, srcs, nil},
		// Wave 1's b claims the directory wave 0's lib/x.o lives in; its
		// sibling ab sorts first and used to be committed before it.
		{"later wave output is a directory of an earlier output", []*Task{
			mkTask("a", "gen", []string{"lib/x.o"}, nil),
			mkTask("a2", "upper", []string{"ok2"}, []string{"src/a.c"}),
			mkTask("ab", "upper", []string{"ok3"}, []string{"ok2"}),
			mkTask("b", "upper", []string{"lib"}, []string{"ok2"}),
		}, srcs, &OutputConflictError{Path: "lib", Tasks: [2]string{"a", "b"}}},
	}
	for _, tc := range cases {
		res, err := Build(Config{Graph: mustGraph(t, tc.tasks), Sources: tc.sources})
		var conflict *OutputConflictError
		switch {
		case tc.conflict == nil && !errors.Is(err, ErrBadTask):
			t.Errorf("%s: Build = %v, want ErrBadTask", tc.name, err)
		case tc.conflict != nil && (!errors.As(err, &conflict) || *conflict != *tc.conflict):
			t.Errorf("%s: Build = %v, want %+v", tc.name, err, tc.conflict)
		}
		// Nothing ran, so nothing is visible: the committed prefix of a
		// build rejected in validation is the empty build.
		if len(res.Outputs) != 0 || len(res.Tasks) != 0 || res.TreeDigest != (Result{}).TreeDigest {
			t.Errorf("%s: rejected build reports outputs %v, tasks %v, digest %v",
				tc.name, res.Outputs, res.Tasks, res.TreeDigest)
		}
	}
}

func mustGraph(t testing.TB, tasks []*Task) *Graph {
	t.Helper()
	g, err := NewGraph(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
