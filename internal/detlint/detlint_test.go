package detlint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture matrix: every analyzer is exercised with a positive case
// (a failing-then-fixed pattern it must catch), a negative case (safe
// idioms it must not flag), and a suppression case (a justified
// //detlint:allow silences, a reasonless or misspelled one is itself
// reported). Scope-gated analyzers additionally prove they stay quiet
// when the same code is loaded under a non-deterministic import path.
func TestAnalyzersOnFixtures(t *testing.T) {
	detPath := modulePath + "/internal/kernel"
	benchPath := modulePath + "/internal/bench"
	servePath := modulePath + "/internal/serve"
	cases := []struct {
		analyzer *Analyzer
		dir      string
		path     string // import path the fixture is loaded under
	}{
		{MapOrderAnalyzer, "maporder/pos", "fixture/maporder"},
		{MapOrderAnalyzer, "maporder/neg", "fixture/maporder"},
		{MapOrderAnalyzer, "maporder/allow", "fixture/maporder"},

		{WallTimeAnalyzer, "walltime/pos", detPath},
		// The serving fabric and the build executor are wall-clock-banned
		// too, even though the other scope-gated analyzers leave them
		// alone.
		{WallTimeAnalyzer, "walltime/pos", servePath},
		{WallTimeAnalyzer, "walltime/pos", modulePath + "/internal/detmake"},
		{WallTimeAnalyzer, "walltime/scope", benchPath},
		{WallTimeAnalyzer, "walltime/allow", detPath},

		{GlobalMutAnalyzer, "globalmut/pos", modulePath + "/internal/vm"},
		{GlobalMutAnalyzer, "globalmut/neg", modulePath + "/internal/vm"},
		{GlobalMutAnalyzer, "globalmut/scope", benchPath},
		{GlobalMutAnalyzer, "globalmut/scope", servePath},
		{GlobalMutAnalyzer, "globalmut/allow", modulePath + "/internal/vm"},

		{GoroutinePoolAnalyzer, "goroutinepool/pos", detPath},
		// Under vm too: the fixture spawns from the retired merge pool's
		// site, which must be reported like any other.
		{GoroutinePoolAnalyzer, "goroutinepool/pos", modulePath + "/internal/vm"},
		{GoroutinePoolAnalyzer, "goroutinepool/neg", detPath},
		{GoroutinePoolAnalyzer, "goroutinepool/scope", benchPath},
		{GoroutinePoolAnalyzer, "goroutinepool/scope", servePath},
		{GoroutinePoolAnalyzer, "goroutinepool/allow", detPath},

		{ErrCmpAnalyzer, "errcmp/pos", "fixture/errcmp"},
		{ErrCmpAnalyzer, "errcmp/neg", "fixture/errcmp"},
		{ErrCmpAnalyzer, "errcmp/allow", "fixture/errcmp"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			RunFixture(t, filepath.Join("testdata", "src", tc.dir), tc.analyzer, tc.path)
		})
	}
}

// A space is the only goroutine: the space runner is the single approved
// launch site, and adding a second is a design change, not a lint edit.
func TestOneApprovedGoroutineSite(t *testing.T) {
	if len(ApprovedGoroutineSites) != 1 || !ApprovedGoroutineSites[modulePath+"/internal/kernel.start"] {
		t.Fatalf("ApprovedGoroutineSites = %v, want only internal/kernel.start", ApprovedGoroutineSites)
	}
}

// The suppression machinery itself: reasons are attached to findings,
// and directives match only their own analyzer and line.
func TestSuppressionCarriesReason(t *testing.T) {
	dir := filepath.Join("testdata", "src", "globalmut", "allow")
	testLoaderOnce.Do(func() { testLoader = NewLoader() })
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	pkg, err := loadFixture(files, modulePath+"/internal/vm")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := RunPackage(pkg, []*Analyzer{GlobalMutAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var suppressed []Finding
	for _, f := range findings {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		}
	}
	if len(suppressed) != 1 {
		t.Fatalf("suppressed findings = %d, want 1 (%v)", len(suppressed), findings)
	}
	want := "identity tokens compared only for equality, never serialized"
	if suppressed[0].Reason != want {
		t.Errorf("suppression reason = %q, want %q", suppressed[0].Reason, want)
	}
}

// The loader and full suite run over this repository itself must be
// clean: zero unsuppressed findings, and every suppression carries a
// reason. This is the CI gate in test form — if it fails, either fix
// the regression or justify it with //detlint:allow.
func TestModuleIsCleanUnderDetlint(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader := NewLoader()
	pkgs, err := loader.Load([]string{"repro/..."}, false)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern expansion broken?", len(pkgs))
	}
	for _, pkg := range pkgs {
		findings, err := RunPackage(pkg, All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, f := range findings {
			if f.Suppressed {
				if strings.TrimSpace(f.Reason) == "" {
					t.Errorf("%s: suppressed without reason", f)
				}
				continue
			}
			t.Errorf("unsuppressed finding: %s", f)
		}
	}
}

// Deterministic report order: findings come back sorted by position so
// -json diffs are stable across runs.
func TestFindingsAreSorted(t *testing.T) {
	dir := filepath.Join("testdata", "src", "maporder", "pos")
	testLoaderOnce.Do(func() { testLoader = NewLoader() })
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	pkg, err := loadFixture(files, "fixture/maporder")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := RunPackage(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) < 5 {
		t.Fatalf("expected several findings, got %d", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %s before %s", a, b)
		}
	}
	// What the driver prints for an open finding: position first, so an
	// editor can jump to it, analyzer last.
	f := findings[0]
	line := f.String()
	if !strings.HasPrefix(line, fmt.Sprintf("%s:%d:%d: ", f.File, f.Line, f.Col)) ||
		!strings.HasSuffix(line, f.Message+" ["+f.Analyzer+"]") {
		t.Errorf("finding renders as %q", line)
	}
}
