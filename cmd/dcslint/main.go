// Command dcslint is the ledger-aware static-analysis suite for
// dcsledger. It bundles seven analyzers — determinism, lockhold,
// atomicmix, errcheckhot, goroleak, unbounded, jsoncreep — that
// machine-check the invariants the design docs only prose-check:
// replicas must compute identical state (even when nondeterminism is
// laundered through helper functions in other packages), locks must
// not be held across blocking or re-entrant operations, atomic fields
// must never see plain accesses, hot-path errors must never be dropped
// silently, goroutines in long-lived components must have a provable
// stop path, caches must not grow without bound, and the binary-codec
// packages must stay JSON-free.
//
// It runs in two modes:
//
//	dcslint ./...                          # standalone, like staticcheck
//	go vet -vettool=$(which dcslint) ./... # as a go vet tool
//
// The vettool mode speaks cmd/go's unitchecker protocol (-V=full
// handshake, -flags enumeration, then one *.cfg JSON per package).
// Interprocedural facts ride the same protocol: each unit's exported
// facts are gob-serialized into its vetx output and read back from the
// PackageVetx files of its dependencies — the go vet facts shape. In
// standalone mode, packages are analyzed concurrently in dependency
// order over a shared in-process fact store.
//
// Suppress a finding with an inline directive carrying a reason:
//
//	x := time.Now() //dcslint:ignore determinism wall time feeds metrics only
//
// A directive without a reason, or naming an unknown analyzer, is
// itself a diagnostic and cannot be suppressed. See docs/LINT.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dcsledger/internal/analysis"
	"dcsledger/internal/analysis/atomicmix"
	"dcsledger/internal/analysis/determinism"
	"dcsledger/internal/analysis/errcheckhot"
	"dcsledger/internal/analysis/goroleak"
	"dcsledger/internal/analysis/jsoncreep"
	"dcsledger/internal/analysis/lockhold"
	"dcsledger/internal/analysis/unbounded"
)

// all is the full analyzer suite, in catalogue order.
var all = []*analysis.Analyzer{
	determinism.Analyzer,
	lockhold.Analyzer,
	atomicmix.Analyzer,
	errcheckhot.Analyzer,
	goroleak.Analyzer,
	unbounded.Analyzer,
	jsoncreep.Analyzer,
}

var (
	versionFlag  = flag.String("V", "", "print version and exit (cmd/go handshake; use -V=full)")
	flagsFlag    = flag.Bool("flags", false, "print analyzer flags in JSON (cmd/go handshake)")
	jsonFlag     = flag.Bool("json", false, "emit diagnostics as JSON instead of text")
	suppressFlag = flag.Bool("suppressions", false, "inventory every //dcslint:ignore directive instead of analyzing")
	baselineFlag = flag.String("baseline", "", "compare per-analyzer finding counts against this JSON baseline; exit 1 if any rises")
	writeBase    = flag.Bool("write-baseline", false, "with -baseline, rewrite the baseline file from this run instead of comparing")
	parallelFlag = flag.Int("parallel", runtime.GOMAXPROCS(0), "max packages analyzed concurrently in standalone mode (1 = serial)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcslint [-json] [-suppressions] [-baseline file] package...\n")
		fmt.Fprintf(os.Stderr, "   or: go vet -vettool=$(which dcslint) package...\n\n")
		fmt.Fprintf(os.Stderr, "analyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	analysis.RegisterFactTypes(all)
	os.Exit(run(flag.Args()))
}

func run(args []string) int {
	switch {
	case *versionFlag != "":
		return printVersion(*versionFlag)
	case *flagsFlag:
		return printFlags()
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		return runVettool(args[0])
	case len(args) == 0:
		flag.Usage()
		return 2
	case *suppressFlag:
		return runSuppressions(args)
	default:
		return runStandalone(args)
	}
}

// printVersion implements the cmd/go -V=full handshake: the last
// output field must be buildID=<hex> so the go command can key its vet
// cache on the tool binary's content.
func printVersion(mode string) int {
	if mode != "full" {
		fmt.Println("dcslint version devel")
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: reading own executable: %v\n", err)
		return 1
	}
	sum := sha256.Sum256(data)
	fmt.Printf("dcslint version devel comments-go-here buildID=%02x\n", string(sum[:]))
	return 0
}

// printFlags implements the -flags handshake: cmd/go asks which flags
// the tool supports before forwarding any user-specified ones.
func printFlags() int {
	type jsonFlagDesc struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	var out []jsonFlagDesc
	flag.VisitAll(func(f *flag.Flag) {
		isBool := false
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = b.IsBoolFlag()
		}
		out = append(out, jsonFlagDesc{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// runStandalone loads the listing with `go list -export` and analyzes
// the root packages concurrently in dependency order: a package starts
// as soon as every root it imports has finished, so its imported facts
// are already in the shared store. Output is ordered by import path
// regardless of completion order. Diagnostics go to stdout; exit is 1
// when any were found (or the baseline is exceeded).
func runStandalone(patterns []string) int {
	l, err := analysis.List("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
		return 2
	}
	n := len(l.Roots)
	pathIdx := make(map[string]int, n)
	for i := range l.Roots {
		pathIdx[l.Roots[i].ImportPath] = i
	}
	dependents := make([][]int, n)
	indegree := make([]int, n)
	for i := range l.Roots {
		for _, imp := range l.Roots[i].Imports {
			if j, ok := pathIdx[imp]; ok {
				indegree[i]++
				dependents[j] = append(dependents[j], i)
			}
		}
	}

	facts := analysis.NewFactStore()
	diagsByIdx := make([][]analysis.Diagnostic, n)
	errsByIdx := make([]error, n)

	workers := *parallelFlag
	if workers < 1 {
		workers = 1
	}
	ready := make(chan int, n)
	var mu sync.Mutex
	done := 0
	if n == 0 {
		close(ready)
	}
	for i, d := range indegree {
		if d == 0 {
			ready <- i
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				r := l.Roots[i]
				if len(r.CgoFiles) == 0 {
					pkg, err := l.Load(r)
					if err == nil {
						diagsByIdx[i], err = analysis.RunPackageFacts(pkg, all, facts)
					}
					errsByIdx[i] = err
				}
				mu.Lock()
				done++
				var newly []int
				for _, j := range dependents[i] {
					indegree[j]--
					if indegree[j] == 0 {
						newly = append(newly, j)
					}
				}
				finished := done == n
				mu.Unlock()
				// ready is buffered to n and each index is sent exactly
				// once, so these sends never block; they stay outside
				// the lock anyway. The close is safe: done==n means no
				// package remains, so no other worker can still send.
				for _, j := range newly {
					ready <- j
				}
				if finished {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	perAnalyzer := map[string]int{}
	byPkg := map[string]map[string][]vetDiag{}
	for i := range l.Roots {
		if err := errsByIdx[i]; err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: %s: %v\n", l.Roots[i].ImportPath, err)
			return 2
		}
		diags := diagsByIdx[i]
		total += len(diags)
		for _, d := range diags {
			perAnalyzer[d.Analyzer]++
		}
		if *jsonFlag {
			if len(diags) > 0 {
				byPkg[l.Roots[i].ImportPath] = groupDiags(diags)
			}
			continue
		}
		for _, d := range diags {
			fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(byPkg); err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
			return 2
		}
	}
	if *baselineFlag != "" {
		if code := applyBaseline(*baselineFlag, perAnalyzer); code != 0 {
			return code
		}
		// Baseline mode gates on regressions, not on the (already
		// baselined) standing findings.
		return 0
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "dcslint: %d finding(s)\n", total)
		return 1
	}
	return 0
}

// baselineFile is the committed finding budget: per-analyzer counts a
// run may not exceed.
type baselineFile struct {
	Findings map[string]int `json:"findings"`
}

// applyBaseline compares this run's per-analyzer counts against the
// committed baseline (or rewrites it under -write-baseline). A count
// above the baseline fails; a count below it prompts tightening.
func applyBaseline(path string, got map[string]int) int {
	if *writeBase {
		data, err := json.MarshalIndent(baselineFile{Findings: got}, "", "\t")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: writing baseline: %v\n", err)
			return 2
		}
		return 0
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: reading baseline: %v (run with -write-baseline to create it)\n", err)
		return 2
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: parsing baseline %s: %v\n", path, err)
		return 2
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		if allowed := base.Findings[name]; got[name] > allowed {
			fmt.Fprintf(os.Stderr, "dcslint: %s findings rose to %d (baseline %d): fix them or suppress each with a //dcslint:ignore reason — do not raise the baseline\n",
				name, got[name], allowed)
			failed = true
		}
	}
	for name, allowed := range base.Findings {
		if got[name] < allowed {
			fmt.Fprintf(os.Stderr, "dcslint: note: %s findings fell to %d (baseline %d) — tighten the baseline\n", name, got[name], allowed)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runSuppressions inventories every //dcslint:ignore directive in the
// matched packages: where it is, which analyzers it silences, and the
// recorded reason. The audit trail for "why is this finding allowed".
func runSuppressions(patterns []string) int {
	l, err := analysis.List("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
		return 2
	}
	known := map[string]bool{"all": true}
	for _, a := range all {
		known[a.Name] = true
	}
	count, malformed := 0, 0
	for i := range l.Roots {
		r := l.Roots[i]
		fset := token.NewFileSet()
		for _, gf := range r.GoFiles {
			path := gf
			if !strings.HasPrefix(path, "/") {
				path = r.Dir + "/" + gf
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
				return 2
			}
			igs, bad := analysis.ParseIgnores(fset, f, known)
			for _, ig := range igs {
				names := make([]string, 0, len(ig.Analyzers))
				for name := range ig.Analyzers {
					names = append(names, name)
				}
				sort.Strings(names)
				fmt.Printf("%s:%d: [%s] %s\n", path, ig.Line, strings.Join(names, ","), ig.Reason)
				count++
			}
			for _, d := range bad {
				fmt.Printf("%s: MALFORMED: %s\n", d.Pos, d.Message)
				malformed++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "dcslint: %d suppression(s), %d malformed\n", count, malformed)
	if malformed > 0 {
		return 1
	}
	return 0
}

// vetConfig is the subset of cmd/go's unitchecker *.cfg payload the
// driver needs. PackageVetx names the fact files of this unit's
// dependencies; VetxOutput is where this unit's facts (imported +
// newly exported, so transitive facts flow) are written.
type vetConfig struct {
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetDiag is one diagnostic in go vet's JSON schema.
type vetDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// runVettool handles a single unitchecker invocation: read the cfg,
// merge dependency facts from PackageVetx, analyze (even for
// VetxOnly units — they produce the facts dependents need), write the
// fact store to VetxOutput, and report diagnostics unless VetxOnly.
func runVettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	facts := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		if err := facts.ReadFile(vetx); err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: reading facts %s: %v\n", vetx, err)
			return 1
		}
	}
	// On every early exit the vetx output must still exist or cmd/go
	// errors; default to facts-so-far and overwrite after analysis.
	writeVetx := func() bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := facts.WriteFile(cfg.VetxOutput); err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: writing vetx: %v\n", err)
			return false
		}
		return true
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, fn := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure && writeVetx() {
				return 0
			}
			fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if to, ok := cfg.ImportMap[path]; ok {
			path = to
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := analysis.CheckFiles(fset, imp, cfg.ImportPath, cfg.Dir, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure && writeVetx() {
			return 0
		}
		fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
		return 1
	}
	diags, err := analysis.RunPackageFacts(pkg, all, facts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcslint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if !writeVetx() {
		return 1
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	if *jsonFlag {
		out := map[string]map[string][]vetDiag{cfg.ImportPath: groupDiags(diags)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: %v\n", err)
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	return 2
}

// groupDiags buckets diagnostics by analyzer for JSON output.
func groupDiags(diags []analysis.Diagnostic) map[string][]vetDiag {
	m := map[string][]vetDiag{}
	for _, d := range diags {
		m[d.Analyzer] = append(m[d.Analyzer], vetDiag{Posn: d.Pos.String(), Message: d.Message})
	}
	return m
}
