// Package detlint statically enforces the repository's determinism
// invariants: a run's result bits must be a pure function of its inputs.
// The property tests (merge invariance, checkpoint bit-identity, flat-vs-
// tree checksum equality) catch violations after the fact — detlint
// catches the patterns that cause them at compile time.
//
// The package is a self-contained subset of the golang.org/x/tools
// go/analysis API (Analyzer, Pass, Diagnostic and an analysistest-style
// golden runner), built on the standard library's go/ast and go/types so
// the module keeps zero external dependencies. Analyzer Run functions are
// written against the x/tools shapes, so the suite can be rehosted on the
// real multichecker by swapping this file for the upstream import.
//
// Every analyzer honors a per-line suppression directive:
//
//	//detlint:allow <analyzer> <reason>
//
// placed on, or on the line immediately above, the offending statement.
// The reason is mandatory: a reasonless allow is itself reported. See
// docs/determinism-rules.md for the rule catalog.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one determinism rule and how to check it.
type Analyzer struct {
	// Name identifies the analyzer in reports and in
	// //detlint:allow directives. Lower-case, no spaces.
	Name string

	// Doc is the one-paragraph rule description shown by `detlint -list`.
	Doc string

	// Run applies the rule to a single type-checked package, reporting
	// violations through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package. It mirrors
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic against the pass's package, formatted
// as by fmt.Sprintf.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// A Finding is one diagnostic after suppression matching: the unit the
// driver prints, counts and serializes.
type Finding struct {
	Analyzer   string         `json:"analyzer"`
	Pos        token.Position `json:"-"`
	File       string         `json:"file"`
	Line       int            `json:"line"`
	Col        int            `json:"col"`
	Message    string         `json:"message"`
	Suppressed bool           `json:"suppressed,omitempty"`
	// Reason is the justification from the matching //detlint:allow
	// directive; set only when Suppressed.
	Reason string `json:"reason,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}
