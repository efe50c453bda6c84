package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// The harness itself under test. Every quantity it prints is exact, so
// the whole quick-mode output is pinned by one golden file and compared
// cell for cell; the shape tests below check the paper's claims on the
// full-size figures.

const (
	quickGoldenPath = "testdata/quick.golden.json"
	fullGoldenPath  = "testdata/full.golden.json"
)

// quickIDs is every experiment the quick golden pins: all but tab3, whose
// counts move with every edit to the module.
func quickIDs() []string {
	var ids []string
	for _, id := range Experiments() {
		if id != "tab3" {
			ids = append(ids, id)
		}
	}
	return ids
}

// fullIDs is every experiment the full-size golden pins: the multi-node
// tables, whose figures at full size reach migration and merge traffic
// the quick runs do not. Together they take well under a second.
var fullIDs = []string{"cluster", "fig11", "fig12", "rocache"}

// loadGolden loads the golden tables at path keyed by id. Following
// ckpt_v1.golden's convention the file is created when absent, from
// ids run under opt: delete it and re-run to regenerate, then read the
// diff before committing it.
func loadGolden(t *testing.T, path string, ids []string, opt Options) map[string]Table {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		var tabs []Table
		for _, id := range ids {
			tab, err := Run(id, "", opt)
			if err != nil {
				t.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
		if raw, err = json.MarshalIndent(tabs, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file created; commit %s", path)
	} else if err != nil {
		t.Fatal(err)
	}
	var tabs []Table
	if err := json.Unmarshal(raw, &tabs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := make(map[string]Table, len(tabs))
	for _, tab := range tabs {
		byID[tab.ID] = tab
	}
	return byID
}

func quickGolden(t *testing.T) map[string]Table {
	return loadGolden(t, quickGoldenPath, quickIDs(), Options{Quick: true})
}

// checkGolden runs each of ids under opt and requires its table to equal
// the golden's: an exact-quantity change nobody explained fails here
// naming table, row, column, got and want.
func checkGolden(t *testing.T, golden map[string]Table, ids []string, opt Options) {
	if len(golden) != len(ids) {
		t.Errorf("golden holds %d tables, want %d", len(golden), len(ids))
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			want, ok := golden[id]
			if !ok {
				t.Fatalf("no golden table %q", id)
			}
			got, err := Run(id, "", opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Title != want.Title {
				t.Errorf("title %q, want %q", got.Title, want.Title)
			}
			if !reflect.DeepEqual(got.Header, want.Header) {
				t.Fatalf("header %q, want %q", got.Header, want.Header)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
			}
			for i, row := range got.Rows {
				if len(row) != len(want.Rows[i]) {
					t.Fatalf("row %d has %d cells, want %d", i, len(row), len(want.Rows[i]))
				}
				for j, cell := range row {
					if cell != want.Rows[i][j] {
						t.Errorf("%s row %d (%s) column %s: got %s, want %s",
							id, i, row[0], got.Header[j], cell, want.Rows[i][j])
					}
				}
			}
			if !reflect.DeepEqual(got.Notes, want.Notes) {
				t.Errorf("notes %q, want %q", got.Notes, want.Notes)
			}
		})
	}
}

// TestQuickGolden runs every pinned experiment in quick mode against
// quick.golden.json. It passes at any GOMAXPROCS and repeats under -count.
func TestQuickGolden(t *testing.T) {
	checkGolden(t, quickGolden(t), quickIDs(), Options{Quick: true})
}

// TestFullGolden runs the multi-node tables at full size against
// full.golden.json, the check a change to migration, residency or merge
// traffic used to make by diffing detbench's output by hand.
func TestFullGolden(t *testing.T) {
	checkGolden(t, loadGolden(t, fullGoldenPath, fullIDs, Options{}), fullIDs, Options{})
}

// TestAllExperimentsRunQuick checks the form of every experiment's
// quick table: well-formed, no host-time column, virtual times as full
// integers. The pinned tables come from the golden — TestQuickGolden
// holds the live output equal to it — so only tab3 runs here.
func TestAllExperimentsRunQuick(t *testing.T) {
	golden := quickGolden(t)
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, ok := golden[id]
			if id == "tab3" {
				var err error
				if tab, err = Tab3("../.."); err != nil {
					t.Fatal(err)
				}
			} else if !ok {
				t.Fatalf("no golden table %q", id)
			}
			if tab.ID != id {
				t.Errorf("table id %q, want %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			vtCols := map[int]bool{}
			for j, h := range tab.Header {
				switch {
				case strings.HasSuffix(h, "-ms"), strings.HasSuffix(h, "-wall"), h == "wall-ratio",
					h == "serial", h == "parallel", h == "speedup", h == "gbps":
					t.Errorf("header %q is a host-time column", h)
				case h == "vt", strings.HasSuffix(h, "-vt"):
					vtCols[j] = true
				}
			}
			for i, r := range tab.Rows {
				if len(r) != len(tab.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(r), len(tab.Header))
					continue
				}
				for j := range vtCols {
					if _, err := strconv.ParseInt(r[j], 10, 64); err != nil {
						t.Errorf("row %d column %s: virtual time %q is not a full integer", i, tab.Header[j], r[j])
					}
				}
			}
			if !strings.Contains(tab.Format(), tab.Title) {
				t.Error("formatted output missing title")
			}
		})
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := Run("fig99", ".", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig4ScheduleShape(t *testing.T) {
	// Figure 4's schedules (b)-(d): tasks of 3, 1 and 2 units on two
	// CPUs. 'make -j' and Unix's completion-order wait both finish in 3
	// units; Determinator's wait, which reports the earliest-forked
	// child, starts the third task late and finishes in 5.
	tab := Fig4(Options{})
	vt := make([]float64, len(tab.Rows))
	for i, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatalf("bad makespan cell %q", r[1])
		}
		vt[i] = v
	}
	unlimited, unix, det := vt[0], vt[1], vt[2]
	if d := unix/unlimited - 1; d < -0.02 || d > 0.02 {
		t.Errorf("-j2 with Unix wait takes %.0f VT, -j %.0f: want them within 2%% (both 3 units)", unix, unlimited)
	}
	if r := det / unlimited; r < 1.6 || r > 1.7 {
		t.Errorf("Determinator -j2 / -j = %.2f, want 5/3 units, in [1.6, 1.7]", r)
	}
}

func TestFig7RatiosReproduceShape(t *testing.T) {
	// The coarse/fine split is the paper's headline: md5 and matmult
	// must land near parity, the lu pair well above, and lu_noncont
	// above lu_cont.
	tab := Fig7(Options{Quick: false, CPUs: 12})
	ratios := map[string]float64{}
	for _, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", r[4])
		}
		ratios[r[0]] = v
	}
	if ratios["md5"] > 1.3 {
		t.Errorf("md5 ratio %.2f, want near parity", ratios["md5"])
	}
	if ratios["matmult"] > 1.5 {
		t.Errorf("matmult ratio %.2f, want near parity", ratios["matmult"])
	}
	if ratios["lu_cont"] < 1.5 {
		t.Errorf("lu_cont ratio %.2f, want clearly above parity", ratios["lu_cont"])
	}
	if ratios["lu_noncont"] <= ratios["lu_cont"] {
		t.Errorf("lu_noncont (%.2f) not worse than lu_cont (%.2f): layout distinction lost",
			ratios["lu_noncont"], ratios["lu_cont"])
	}
	if ratios["fft"] < 2 {
		t.Errorf("fft ratio %.2f, want fine-grained penalty", ratios["fft"])
	}
}

func TestFig8SpeedupShape(t *testing.T) {
	tab := Fig8(Options{Quick: false, CPUs: 12})
	get := func(name string, col int) float64 {
		for _, r := range tab.Rows {
			if r[0] == name {
				v, _ := strconv.ParseFloat(r[col], 64)
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	last := len(tab.Header) - 1
	if s := get("md5", last); s < 8 {
		t.Errorf("md5 12-cpu speedup %.2f, want near-linear", s)
	}
	if s := get("lu_noncont", last); s > 5 {
		t.Errorf("lu_noncont 12-cpu speedup %.2f, want poor scaling", s)
	}
	// Monotone in CPU count for md5 (embarrassingly parallel).
	prev := 0.0
	for col := 1; col <= last; col++ {
		s := get("md5", col)
		if s < prev-0.01 {
			t.Errorf("md5 speedup not monotone at column %d: %.2f after %.2f", col, s, prev)
		}
		prev = s
	}
}

func TestFig11DistributedShape(t *testing.T) {
	tab := Fig11(Options{Quick: true})
	get := func(name string, col int) float64 {
		for _, r := range tab.Rows {
			if r[0] == name {
				v, _ := strconv.ParseFloat(r[col], 64)
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	last := len(tab.Header) - 1
	if tree, mm := get("md5-tree", last), get("matmult-tree", last); tree <= mm {
		t.Errorf("md5-tree (%.2f) should outscale matmult-tree (%.2f)", tree, mm)
	}
}

func TestQuantumOverheadDecreases(t *testing.T) {
	tab := Quantum(Options{Quick: true})
	var overheads []float64
	for _, r := range tab.Rows {
		s := strings.TrimSuffix(strings.TrimPrefix(r[3], "+"), "%")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad overhead cell %q", r[3])
		}
		overheads = append(overheads, v)
	}
	for i := 1; i < len(overheads); i++ {
		if overheads[i] > overheads[i-1]+0.5 {
			t.Errorf("overhead rose with larger quantum: %v", overheads)
		}
	}
	if overheads[0] < 5 {
		t.Errorf("smallest quantum shows only %.1f%% overhead; sweep not exercising rounds", overheads[0])
	}
}

func TestTab3CountsNonzero(t *testing.T) {
	tab, err := Tab3("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("tab3 found only %d component groups", len(tab.Rows))
	}
	total := tab.Rows[len(tab.Rows)-1]
	lines, err := strconv.Atoi(total[2])
	if err != nil || lines < 3000 {
		t.Errorf("total line count %q implausible", total[2])
	}
}

// TestTab3RejectsWhatItCannotCount: the tracked metric's good direction
// is down, so a root that is not the module, a missing component
// directory and a source file that cannot be opened must each be an
// error — never a table with a smaller total.
func TestTab3RejectsWhatItCannotCount(t *testing.T) {
	if _, err := Tab3(filepath.Join(t.TempDir(), "nonexistent")); err == nil {
		t.Error("root without go.mod accepted")
	}

	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Tab3(root); err == nil {
		t.Error("root missing every component directory accepted")
	}

	for _, g := range tab3Groups {
		for _, d := range g.dirs {
			if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := Tab3(root); err != nil {
		t.Fatalf("empty but complete module tree: %v", err)
	}
	// A dangling symlink cannot be opened whoever runs the test (a mode
	// bit would not stop root).
	if err := os.Symlink("gone", filepath.Join(root, "internal/vm/unreadable.go")); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if _, err := Tab3(root); err == nil {
		t.Error("unreadable source file counted as zero lines")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tab.AddRow("a", "1")
	tab.AddRow("long-name", "22")
	tab.Note("a note with %d", 7)
	out := tab.Format()
	if !strings.Contains(out, "== x: demo ==") || !strings.Contains(out, "note: a note with 7") {
		t.Errorf("format output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

// BenchmarkCkptSave is the ruler for ROADMAP's O(dirty) bar: a second
// save after a 2%-dirty round (delta2) should cost within 2× of the
// first save of a machine that only ever dirtied 2% (fresh2). Only the
// last Session.Suspend of each run is timed — the capture, the chunking
// into a MemStore and the machine's teardown, what an eviction pays;
// delta2 suspends after a full round, resumes, dirties 2% and suspends
// again. The workloads are the ckpt table's 2% and Δ2 rows on the
// quick-mode 32M region. The timed save runs with the collector off,
// after an untimed collection: no cycle lands in it, so the figure is
// the save's own work whatever GOGC is, and B/op is what its garbage
// will cost the collector.
func BenchmarkCkptSave(b *testing.B) {
	const region, threads = 32 << 20, 4
	for _, sh := range []struct {
		name  string
		w     ckptWorkload
		saves []int // barriers suspended at; the last is the timed one
	}{
		{"fresh2", ckptWorkload{region: region, frac: 2, threads: threads, phases: 3}, []int{2}},
		{"delta2", ckptWorkload{region: region, frac: 2, threads: threads, phases: 3,
			phaseFracs: []int{100, 2, 2}}, []int{1, 2}},
	} {
		b.Run(sh.name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				store := repro.NewMemStore()
				s := sh.w.session()
				if err := s.Bind(sh.w.program()); err != nil {
					b.Fatal(err)
				}
				pos := 0
				for j, at := range sh.saves {
					if _, err := s.Step(at - pos); err != nil {
						b.Fatal(err)
					}
					pos = at
					var err error
					if j == len(sh.saves)-1 {
						err = timedSuspend(b, s, store)
					} else {
						_, err = s.Suspend(store)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				s.Close()
			}
		})
	}
}

// timedSuspend times one Suspend of s into store with the collector
// off, after an untimed collection.
func timedSuspend(b *testing.B, s *repro.Session, store repro.BlobStore) error {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.StartTimer()
	defer b.StopTimer()
	_, err := s.Suspend(store)
	return err
}
