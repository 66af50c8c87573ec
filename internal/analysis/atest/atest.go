// Package atest is the golden-test harness for dcslint analyzers — a
// stdlib-only equivalent of golang.org/x/tools/go/analysis/analysistest.
//
// Testdata packages live under testdata/src/<name>/ and annotate
// expected findings with trailing comments of the form
//
//	x := time.Now() // want "wall-clock"
//
// Each quoted string is a regular expression that must match one
// diagnostic reported on that line; unexpected diagnostics and
// unmatched expectations both fail the test. Suppressed findings
// (//dcslint:ignore with a reason) are filtered before matching, and
// malformed directives surface as ordinary diagnostics under the
// "dcslint" pseudo-analyzer, so the suppression protocol itself is
// golden-testable.
package atest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dcsledger/internal/analysis"
)

// wantRe matches one quoted expectation inside a // want comment.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// wantMarker introduces expectations inside a comment.
const wantMarker = `want "`

// lineKey addresses diagnostics by file basename and line.
type lineKey struct {
	file string
	line int
}

// A PkgSpec names one testdata package of a multi-package fixture: its
// on-disk directory and the import path to analyze it under (which
// controls path-scoped analyzers such as determinism, and is the path
// dependent fixture packages import it by).
type PkgSpec struct {
	Dir        string
	ImportPath string
}

// Run loads the single package rooted at dir, analyzes it under the
// given import path (which controls path-scoped analyzers such as
// determinism), and matches the diagnostics against the // want
// comments in the sources.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	RunPackages(t, []PkgSpec{{Dir: dir, ImportPath: importPath}}, analyzers...)
}

// RunPackages analyzes a sequence of testdata packages in order with a
// shared fact store — the interprocedural harness. Earlier packages'
// type-checked results are made importable by later ones (under their
// spec ImportPath), and facts exported while analyzing an earlier
// package are visible when a later package is analyzed, exactly like
// the driver's dependency-ordered run. // want expectations are
// matched per package.
func RunPackages(t *testing.T, specs []PkgSpec, analyzers ...*analysis.Analyzer) {
	t.Helper()
	facts := analysis.NewFactStore()
	local := map[string]*types.Package{}

	// One FileSet and one fallback importer for the whole fixture set:
	// shared external dependencies (context, time, sync, ...) must
	// resolve to identical *types.Package values across fixture
	// packages, or values flowing between them fail to type-check.
	fset := token.NewFileSet()
	isLocal := map[string]bool{}
	for _, spec := range specs {
		isLocal[spec.ImportPath] = true
	}
	parsed := make([][]*ast.File, len(specs))
	seen := map[string]bool{}
	var external []string
	for i, spec := range specs {
		parsed[i] = parseDir(t, fset, spec.Dir)
		for _, f := range parsed[i] {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err == nil && !seen[p] && !isLocal[p] {
					seen[p] = true
					external = append(external, p)
				}
			}
		}
	}
	sort.Strings(external)
	fallback, err := analysis.ExportImporter(fset, "", external)
	if err != nil {
		t.Fatalf("building importer: %v", err)
	}

	for i, spec := range specs {
		diags := analyze(t, fset, parsed[i], spec.ImportPath, local, fallback, facts, analyzers...)
		match(t, fset, parsed[i], diags)
	}
}

// match checks one package's diagnostics against its // want comments.
func match(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	got := make(map[lineKey][]analysis.Diagnostic)
	for _, d := range diags {
		k := lineKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		got[k] = append(got[k], d)
	}

	for _, f := range files {
		base := filepath.Base(fset.Position(f.Pos()).Filename)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, wantMarker)
				if idx < 0 {
					continue
				}
				line := fset.Position(c.Pos()).Line
				k := lineKey{base, line}
				for _, q := range wantRe.FindAllString(c.Text[idx:], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", base, line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", base, line, pat, err)
					}
					if !matchAndRemove(got, k, re) {
						t.Errorf("%s:%d: no diagnostic matching %q", base, line, pat)
					}
				}
			}
		}
	}

	// Anything left unmatched is an unexpected diagnostic.
	var leftover []string
	for _, ds := range got {
		for _, d := range ds {
			leftover = append(leftover, d.String())
		}
	}
	sort.Strings(leftover)
	for _, s := range leftover {
		t.Errorf("unexpected diagnostic: %s", s)
	}
}

// parseDir parses every .go file directly under dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no .go files in %s", dir)
	}
	return files
}

// analyze type-checks the parsed files and runs the analyzers. local
// maps import paths of already-checked fixture packages (consulted
// before export data, so fixture packages can import one another);
// the checked package is added to it.
func analyze(t *testing.T, fset *token.FileSet, files []*ast.File, importPath string, local map[string]*types.Package, fallback types.Importer, facts *analysis.FactStore, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkg, err := analysis.CheckFiles(fset, localImporter{local, fallback}, importPath, files)
	if err != nil {
		t.Fatalf("type-checking testdata: %v", err)
	}
	local[importPath] = pkg.Types
	diags, err := analysis.RunPackageFacts(pkg, analyzers, facts)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return diags
}

// localImporter resolves fixture packages from memory before falling
// back to export data for the standard library.
type localImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (li localImporter) Import(path string) (*types.Package, error) {
	if p := li.local[path]; p != nil {
		return p, nil
	}
	return li.fallback.Import(path)
}

// matchAndRemove consumes the first diagnostic at k matching re.
func matchAndRemove(got map[lineKey][]analysis.Diagnostic, k lineKey, re *regexp.Regexp) bool {
	ds := got[k]
	for i, d := range ds {
		if re.MatchString(d.Message) {
			got[k] = append(ds[:i:i], ds[i+1:]...)
			return true
		}
	}
	return false
}
