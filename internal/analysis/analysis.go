// Package analysis is a dependency-free static-analysis framework for
// the dcslint suite: a miniature, stdlib-only re-implementation of the
// golang.org/x/tools/go/analysis surface (Analyzer / Pass / Diagnostic)
// plus a package loader built on `go list -export` and the compiler's
// export-data importer.
//
// Why not x/tools? The build environment is hermetic — the module has
// no external dependencies and must stay that way — so the framework
// re-creates exactly the part of the analysis API the dcslint
// analyzers need, and cmd/dcslint is its one driver.
//
// The suite exists because the paper's DCS conjecture assumes every
// replica computes identical branch-selection and state-transition
// results: one nondeterministic map iteration or wall-clock read in a
// consensus path silently forks the ledger. The analyzers turn the
// repo's convention-only rules (simclock-only time, no I/O under
// locks, atomics-or-mutexes-never-both, no discarded hash-write
// errors) into machine-checked invariants.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check of the dcslint suite.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dcslint:ignore directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description `dcslint -h` prints.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the loaded, type-checked package
// under analysis and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Path      string // import path of the package under analysis
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the run's fact store: dependency facts are already
	// present when Run starts (the driver analyzes packages in
	// dependency order), and facts the analyzer exports become visible
	// to dependent packages.
	Facts *FactStore

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// A Diagnostic is one finding, positioned and attributed to an
// analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// FrameworkName is the pseudo-analyzer name under which the framework
// itself reports (malformed //dcslint:ignore directives). Findings
// under this name cannot be suppressed.
const FrameworkName = "dcslint"

// A Package is one loaded, type-checked compilation unit ready for
// analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// RunPackageFacts applies every analyzer to pkg, enforces the
// //dcslint:ignore suppression protocol, and returns the surviving
// diagnostics sorted by position. Malformed directives (no reason, or
// an unknown analyzer name) are themselves diagnostics, attributed to
// FrameworkName and never suppressible. Facts of the package's
// dependencies must already be in facts (analyze packages in
// dependency order), and facts this package exports are added to it.
//
// _test.go files are exempt: the invariants police code that runs on
// replicas, and test-local nondeterminism (collecting results into a
// slice, resetting a memo between sequential benchmark rounds) cannot
// fork a ledger.
func RunPackageFacts(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}

	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Path:      pkg.Path,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}

	known := make(map[string]bool, len(analyzers)+1)
	known["all"] = true
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var out []Diagnostic
	ignores := make(map[string][]Ignore) // filename → directives
	for _, f := range files {
		name := pkg.Fset.Position(f.Pos()).Filename
		igs, malformed := ParseIgnores(pkg.Fset, f, known)
		ignores[name] = igs
		out = append(out, malformed...)
	}
	for _, d := range raw {
		if !suppressed(d, ignores[d.Pos.Filename]) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// suppressed reports whether a well-formed ignore directive in the
// diagnostic's file covers it.
func suppressed(d Diagnostic, igs []Ignore) bool {
	if d.Analyzer == FrameworkName {
		return false
	}
	for _, ig := range igs {
		if !ig.Covers(d.Pos.Line) {
			continue
		}
		if ig.Analyzers["all"] || ig.Analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}
