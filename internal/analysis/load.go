package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Export     string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// A Listing is the parsed result of one `go list -export` invocation:
// the root packages to analyze plus the export-data and vendor/import
// maps needed to type-check them. Roots are sorted by import path.
type Listing struct {
	Roots     []listPackage
	exportFor map[string]string // import path → export data file
	importMap map[string]string // source import path → vendored path
}

// List runs `go list -export` over the given patterns rooted at dir
// ("" means the current directory) and parses the result.
func List(dir string, patterns ...string) (*Listing, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Imports,Export,DepOnly,Standard,ImportMap,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	return parseGoList(&out)
}

// parseGoList decodes a stream of `go list -json` objects into a
// Listing. Split from List so malformed-output and edge-case handling
// is unit-testable without shelling out.
func parseGoList(r io.Reader) (*Listing, error) {
	l := &Listing{
		exportFor: make(map[string]string),
		importMap: make(map[string]string),
	}
	dec := json.NewDecoder(r)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exportFor[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			l.importMap[from] = to
		}
		if !p.DepOnly && len(p.GoFiles) > 0 {
			l.Roots = append(l.Roots, p)
		}
	}
	sort.Slice(l.Roots, func(i, j int) bool { return l.Roots[i].ImportPath < l.Roots[j].ImportPath })
	return l, nil
}

// lookup resolves an import path (through the vendor map) to its
// export-data file.
func (l *Listing) lookup(path string) (io.ReadCloser, error) {
	if to, ok := l.importMap[path]; ok {
		path = to
	}
	f, ok := l.exportFor[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

// Load parses and type-checks one root package from the listing. Each
// call builds its own FileSet and export-data importer, so independent
// packages can be loaded concurrently — the gc importer's package
// cache is not safe for sharing across goroutines.
func (l *Listing) Load(r listPackage) (*Package, error) {
	if len(r.CgoFiles) > 0 {
		// Cgo packages cannot be parsed as plain Go (none exist in this
		// module).
		return nil, fmt.Errorf("loading %s: cgo packages are unsupported", r.ImportPath)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, gf := range r.GoFiles {
		fn := gf
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(r.Dir, gf)
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	return CheckFiles(fset, importer.ForCompiler(fset, "gc", l.lookup), r.ImportPath, files)
}

// CheckFiles type-checks an already-parsed file set as one package —
// the step Load and the golden-test harness share; each supplies its
// own importer.
func CheckFiles(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	// Every map the analyzers consult.
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// ExportImporter builds a types.Importer that resolves the given
// import paths (and their transitive dependencies) from compiler
// export data via `go list -export`. It is the helper the golden-test
// harness uses so testdata packages can import the standard library.
func ExportImporter(fset *token.FileSet, dir string, imports []string) (types.Importer, error) {
	if len(imports) == 0 {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return nil, fmt.Errorf("no imports expected, got %q", path)
		}), nil
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Export,Error",
	}, imports...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", imports, err, errb.String())
	}
	l, err := parseGoList(&out)
	if err != nil {
		return nil, err
	}
	return importer.ForCompiler(fset, "gc", l.lookup), nil
}
