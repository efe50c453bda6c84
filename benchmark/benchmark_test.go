package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestPercentiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if v[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}

	// The tail percentile is the highest with ten samples beyond it.
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 90}, {250, 95}, {1000, 99}, {10000, 99.9}} {
		if p, _ := tailPercentile(seq(c.n)); p != c.want {
			t.Errorf("tailPercentile of %d samples picked p%g, want p%g", c.n, p, c.want)
		}
	}
}

// TestEndToEnd checks the ratio arithmetic: the ratios are the latency
// and the CPU cost in units of the reference op's wall, which is the sum
// over keys of the median reference sample.
func TestEndToEnd(t *testing.T) {
	w := &window{Wall: 2, CPU: 0.3, Attempted: 4, Failed: 1, Lat: []float64{50, 52, 51}}
	for _, x := range []float64{10, 12, 11} {
		w.sample("num:a", x)
		w.sample("den:a", x/2)
	}
	w.sample("num:b", 30)
	w.sample("den:b", 10)
	got := endToEnd([]*window{w})
	ref := 5.5 + 10 // ms
	want := map[string]float64{
		"ops_per_s": 1.5, "op_p50_ms": 51, "cpu_ms_per_op": 100,
		"wall_ratio": (11 + 30) / ref, "cpu_per_ref": 100 / ref,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	// With one reference for the whole op, the op latencies are the
	// numerator.
	w = &window{Wall: 1, Attempted: 3, Lat: []float64{8, 10, 12}}
	w.sample("den:op", 5)
	if got := endToEnd([]*window{w})["wall_ratio"]; got != 2 {
		t.Errorf("wall_ratio over the op latencies = %g, want 2", got)
	}
}

// TestSelfTimes checks the span-tree arithmetic: children never exceed
// their parent, and the shares of a tree sum to one.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "build", Op: 1, Parent: 0, Start: 10, End: 90},
		// Two actions running concurrently over [20,60): they split it.
		{ID: 2, Name: "action", Op: 1, Parent: 1, Start: 20, End: 60},
		{ID: 3, Name: "action", Op: 1, Parent: 1, Start: 20, End: 60},
		// A store call that overhangs its parent: clipped at 90.
		{ID: 4, Name: "castore.put", Op: 1, Parent: 1, Start: 70, End: 95},
		// A second op, with a child nested two deep.
		{ID: 5, Name: "op", Op: 2, Parent: -1, Start: 200, End: 260},
		{ID: 6, Name: "build", Op: 2, Parent: 5, Start: 200, End: 250},
		{ID: 7, Name: "castore.get", Op: 2, Parent: 6, Start: 210, End: 240},
	}
	self, total := selfTimes(spans)
	want := map[string]float64{
		"op":          (100 - 80) + (60 - 50),
		"build":       (80 - 40 - 20) + (50 - 30),
		"action":      40,
		"castore.put": 20,
		"castore.get": 30,
	}
	if total != 160 {
		t.Errorf("total = %g, want 160", total)
	}
	var sum float64
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
		sum += self[name]
	}
	if len(self) != len(want) {
		t.Errorf("self has %d names, want %d: %v", len(self), len(want), self)
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("self times sum to %g, the roots to %g", sum, total)
	}

	// Concurrent children under a parent that was itself allotted only
	// part of its wall (it ran beside a sibling) still sum to the root.
	spans = []span{
		{ID: 0, Name: "op", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 0, End: 100},
		{ID: 2, Name: "b", Parent: 0, Start: 0, End: 100},
		{ID: 3, Name: "c", Parent: 1, Start: 0, End: 50},
	}
	self, total = selfTimes(spans)
	if self["op"] != 0 || self["a"] != 25 || self["b"] != 50 || self["c"] != 25 || total != 100 {
		t.Errorf("concurrent split: self %v, total %g", self, total)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogue checks the names against the contract's alphabet.
func TestCatalogue(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %s is in the catalogue but cannot be built: %v", w.Name, err)
		}
	}
	setup := false
	for _, d := range endToEndDefs {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayerDefs) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayerDefs))
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayerDefs {
		check("per-layer metric", d.Name)
		if d.Moves == "" {
			t.Errorf("%s: no prediction of the end-to-end number it should move", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json at the
// repository root in step with the catalogue the program reports from.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the catalogue %+v", i, f.Workloads[i], w)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the catalogue", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the catalogue %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound differs from the catalogue's %g", kind, d.Name, d.Bound)
			}
		}
	}
	same("end-to-end", f.EndToEnd, endToEndDefs, true)
	same("per-layer", f.PerLayer, perLayerDefs, false)
}

// TestCompareGolden runs -compare on the golden files: the verdicts, the
// printed table, and the exit status.
func TestCompareGolden(t *testing.T) {
	old := filepath.Join("testdata", "old.json")
	var buf bytes.Buffer
	if code := compareFiles(&buf, old, old); code != 0 {
		t.Errorf("a file compared with itself: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareFiles(&buf, old, filepath.Join("testdata", "new.json")); code != 1 {
		t.Errorf("old vs new: exit %d, want 1", code)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "compare.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("old vs new printed:\n%s\nwant:\n%s", buf.String(), want)
	}
	for _, c := range []struct{ metric, verdict string }{
		{"cpu_per_ref", "ok"},        // 8% worse, bound 25%
		{"wall_ratio", "REGRESSION"}, // 30% worse, bound 25%
		{"setup_s", "ok"},            // ten times worse, but inside 0.5 s
		{"vm.merge.pages_adopted", "DIFFERS"},
		{"ops_failed/ops_attempted", "MORE FAILURES"},
	} {
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == c.metric && strings.HasSuffix(line, c.verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s row with verdict %s", c.metric, c.verdict)
		}
	}
}

func testConfig(t *testing.T, seconds float64) *runConfig {
	return &runConfig{seed: 7, seconds: seconds, threads: runtime.GOMAXPROCS(0), work: t.TempDir(), smoke: true}
}

// TestSmoke runs all six workloads the way -smoke does (one short
// window each, the session server in-process) and checks that every
// workload's verification fired and passed.
func TestSmoke(t *testing.T) {
	c := testConfig(t, 0.05)
	var all []*measured
	for _, d := range workloadDefs {
		m, err := newMeasured(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		defer m.w.teardown()
		all = append(all, m)
	}
	if err := runUntraced(c, &host{}, all); err != nil {
		t.Fatal(err)
	}
	for _, m := range all {
		r := m.conclude(m.windows)
		if !r.Correct || r.Verified == 0 || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d verified, %d of %d ops failed: %s",
				m.name, r.Correct, r.Verified, r.Failed, r.Attempted, r.Error)
		}
		for _, d := range fullRunDefs {
			if v := m.pooled()[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %g, want a positive number", m.name, d.Name, v)
			}
		}
		if s, ok := m.w.(*serveWorkload); ok {
			st, err := s.outside.stats()
			if err != nil {
				t.Fatal(err)
			}
			if (m.name == "serve_evict") != (st.Evictions > 0) {
				t.Errorf("%s: %d evictions", m.name, st.Evictions)
			}
		}
	}
}

// TestVerificationCatchesWrongAnswers checks that the oracles can fail:
// a served result that is off by one, and a build whose expected bits
// are not the reference's, are failed ops.
func TestVerificationCatchesWrongAnswers(t *testing.T) {
	c := testConfig(t, 0.05)
	s := &serveWorkload{name: "serve_hot", resident: 64}
	if err := s.setup(c); err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	id, err := s.outside.open("t", 42)
	if err != nil {
		t.Fatal(err)
	}
	ret, vt, err := s.outside.run("t", id)
	if err != nil {
		t.Fatal(err)
	}
	if err := reference(&window{}, served{42, ret, vt}); err != nil {
		t.Errorf("a right reply failed verification: %v", err)
	}
	if err := reference(&window{}, served{42, ret + 1, vt}); err == nil {
		t.Error("a wrong ret passed verification")
	}
	if err := reference(&window{}, served{42, ret, vt + 1}); err == nil {
		t.Error("a wrong virtual time passed verification")
	}

	m := &makeWorkload{warm: true}
	if err := m.setup(c); err != nil {
		t.Fatal(err)
	}
	defer m.teardown()
	m.want[0].checksum++
	if w := m.run(modeOutside, 0, nil); w.Failed != 1 {
		t.Errorf("a wrong image checksum gave %d failed ops, want 1", w.Failed)
	}
}

// TestTracedReplay runs the traced replay of serve_evict — the one that
// has to tie worker goroutines to ops — and checks that the span tree
// accounts for each op's wall: the named shares sum to one.
func TestTracedReplay(t *testing.T) {
	c := testConfig(t, 0.15)
	m, err := newMeasured("serve_evict")
	if err != nil {
		t.Fatal(err)
	}
	defer m.w.teardown()
	h := &host{}
	if err := prepare(c, h, m, 1, 0); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	windows, out := runTraced(c, h, m, tr)
	for _, w := range windows {
		if w.Failed > 0 {
			t.Fatalf("failed ops: %v", w.Errs)
		}
	}
	sum := out["castore.time_share"] + out["serve.program_share"] + out["serve.step_share"] + out["serve.unattributed_share"]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1: %v", sum, out)
	}
	for _, name := range []string{"castore.time_share", "serve.program_share", "serve.step_share",
		"castore.put_calls_per_op", "castore.get_calls_per_op", "serve.inproc_run_ms", "trace.overhead_ratio"} {
		if !(out[name] > 0) {
			t.Errorf("%s = %g, want a positive number", name, out[name])
		}
	}
	names := make(map[string]int)
	byID := make(map[int]span)
	for _, s := range tr.closed() {
		names[s.Name]++
		byID[s.ID] = s
	}
	for _, name := range []string{"op", "serve.open", "serve.run", "serve.close", "session.step",
		"program.layout", "program.phase", "castore.put", "castore.get"} {
		if names[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	// Every span below the root belongs to its parent's op, and every
	// step hangs under a serve.run.
	for _, s := range byID {
		if s.Parent < 0 {
			if s.Name != "op" {
				t.Errorf("span %s has no parent", s.Name)
			}
			continue
		}
		p := byID[s.Parent]
		if p.Op != s.Op {
			t.Errorf("span %s of op %d hangs under %s of op %d", s.Name, s.Op, p.Name, p.Op)
		}
		if s.Name == "session.step" && p.Name != "serve.run" {
			t.Errorf("a session.step hangs under %s", p.Name)
		}
	}
}
