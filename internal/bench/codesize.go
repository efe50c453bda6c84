package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// tab3Groups is Table 3's rows: each component and the directories
// counted under it.
var tab3Groups = []struct {
	name string
	dirs []string // "." is the root package alone, not the tree under it
}{
	{"Kernel core (vm, spaces, merge, migration)", []string{"internal/vm", "internal/kernel"}},
	{"User-level runtime (threads, fs, proc, dsched, trace)",
		[]string{"internal/core", "internal/fs", "internal/uproc", "internal/dsched", "internal/trace"}},
	{"Facade (root package: Session, images, manifests)", []string{"."}},
	{"Chunk store and image envelope", []string{"internal/castore", "internal/imgenc"}},
	{"Serving fabric and build executor", []string{"internal/serve", "internal/detmake"}},
	{"Determinism analyzers", []string{"internal/detlint"}},
	{"Benchmarks and baselines", []string{"internal/workload", "internal/baseline"}},
	{"Harness and tools", []string{"internal/bench", "cmd"}},
	{"User-level programs (shell, examples)", []string{"examples"}},
}

// Tab3 reproduces Table 3: implementation code size by component,
// counting lines containing semicolons as the paper does — a metric that
// undercounts Go (which elides most semicolons), so plain non-blank,
// non-comment source lines are reported alongside. The rows cover the
// whole module except benchmark/, which measures the module from outside
// and is frozen between the PRs it compares.
//
// The table is a tracked metric whose good direction is down, so a
// count that could not be taken is an error, never a smaller number:
// root must hold the module's go.mod, every listed component directory
// must exist, and every walk and open must succeed.
func Tab3(root string) (Table, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return Table{}, fmt.Errorf("bench: tab3: %q is not the module root: %w", root, err)
	}
	t := Table{
		ID:     "tab3",
		Title:  "implementation code size (this reproduction)",
		Header: []string{"component", "files", "lines", "semicolons", "test-lines"},
	}
	var totF, totL, totS, totT int
	for _, g := range tab3Groups {
		var files, lines, semis, testLines int
		for _, d := range g.dirs {
			f, l, s, tl, err := countDir(filepath.Join(root, d), d == ".")
			if err != nil {
				return Table{}, fmt.Errorf("bench: tab3: %w", err)
			}
			files += f
			lines += l
			semis += s
			testLines += tl
		}
		t.AddRow(g.name, iv(int64(files)), iv(int64(lines)), iv(int64(semis)), iv(int64(testLines)))
		totF += files
		totL += lines
		totS += semis
		totT += testLines
	}
	t.AddRow("Total", iv(int64(totF)), iv(int64(totL)), iv(int64(totS)), iv(int64(totT)))
	t.Note("lines = non-blank, non-comment Go source lines (tests counted separately);")
	t.Note("semicolons = the paper's metric; Go elides most, so it understates relative to C.")
	t.Note("benchmark/ (the frozen end-to-end benchmark) and testdata fixtures are not counted.")
	return t, nil
}

// countDir tallies Go files under dir — or, when shallow, directly in it:
// (files, non-test lines, non-test semicolon lines, test lines). testdata
// directories hold fixtures, not source, and are skipped.
func countDir(dir string, shallow bool) (files, lines, semis, testLines int, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if path != dir && (shallow || info.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		l, s, err := countFile(path)
		if err != nil {
			return err
		}
		files++
		if strings.HasSuffix(path, "_test.go") {
			testLines += l
		} else {
			lines += l
			semis += s
		}
		return nil
	})
	return
}

func countFile(path string) (lines, semis int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if i := strings.Index(line, "*/"); i >= 0 {
				line = strings.TrimSpace(line[i+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if strings.HasPrefix(line, "/*") {
			inBlock = !strings.Contains(line, "*/")
			continue
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		lines++
		if strings.Contains(line, ";") {
			semis++
		}
	}
	return lines, semis, sc.Err()
}

// Experiments lists every runnable experiment id.
func Experiments() []string {
	return []string{"fig4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "quantum", "rocache", "kv", "cluster", "ckpt", "tab3"}
}

// Run executes one experiment by id. root is the repository root (used
// only by tab3).
func Run(id, root string, o Options) (Table, error) {
	switch id {
	case "fig4":
		return Fig4(o), nil
	case "fig7":
		return Fig7(o), nil
	case "fig8":
		return Fig8(o), nil
	case "fig9":
		return Fig9(o), nil
	case "fig10":
		return Fig10(o), nil
	case "fig11":
		return Fig11(o), nil
	case "fig12":
		return Fig12(o), nil
	case "quantum":
		return Quantum(o), nil
	case "rocache":
		return ROCache(o), nil
	case "kv":
		return KVEngine(o), nil
	case "cluster":
		return Cluster(o), nil
	case "ckpt":
		return Ckpt(o), nil
	case "tab3":
		return Tab3(root)
	}
	var t Table
	ids := strings.Join(Experiments(), ", ")
	return t, fmt.Errorf("bench: unknown experiment %q (have: %s)", id, ids)
}
