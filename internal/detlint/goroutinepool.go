package detlint

import (
	"go/ast"
)

// GoroutinePoolAnalyzer flags bare `go` statements in the deterministic
// packages outside the one approved site. A space is the only goroutine:
// all legal concurrency is the space runner ((*Space).start, joined
// through the machine WaitGroup), which the kernel accounts for. An
// untracked goroutine is invisible to the round engine and to virtual
// time, so its interleaving is exactly what the result-invariance sweeps
// cannot cover.
var GoroutinePoolAnalyzer = &Analyzer{
	Name: "goroutinepool",
	Doc: "bare go statements in deterministic packages outside the space runner " +
		"((*Space).start) create untracked nondeterministic concurrency; run the " +
		"work in a child space (Put with Start) and collect it with Get",
	Run: runGoroutinePool,
}

// ApprovedGoroutineSites lists "pkgpath.funcName" locations allowed to
// spawn goroutines: the accounted concurrency the rest of the system is
// built on. Sites inside function literals are attributed to the
// enclosing named function.
var ApprovedGoroutineSites = map[string]bool{
	// The space runner: every spawn is paired with Machine.wg.Add and
	// joined at shutdown; scheduling is mediated by the deterministic
	// scheduler, never by the host.
	modulePath + "/internal/kernel.start": true,
}

func runGoroutinePool(pass *Pass) error {
	if !DeterministicPackages[pass.Pkg.Path()] {
		return nil
	}
	enclosingFuncs(pass.Files, func(n ast.Node, funcName string, _ *ast.BlockStmt) {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		if ApprovedGoroutineSites[pass.Pkg.Path()+"."+funcName] {
			return
		}
		pass.Reportf(g.Pos(), "bare go statement in deterministic package %s (function %s) is untracked concurrency; run the work in a child space (Put with Start, Get), or add the site to detlint.ApprovedGoroutineSites with a determinism argument", pass.Pkg.Path(), funcName)
	})
	return nil
}
