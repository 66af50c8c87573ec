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
// Usage:
//
//	dcslint package...
//	dcslint -suppressions package...
//
// The packages are loaded with `go list -export` and analyzed
// concurrently, GOMAXPROCS at a time, in dependency order over one
// in-process fact store, so a package's analysis sees the facts of
// every package it imports.
//
// Suppress a finding with an inline directive carrying a reason:
//
//	x := time.Now() //dcslint:ignore determinism wall time feeds metrics only
//
// A directive without a reason, or naming an unknown analyzer, is
// itself a diagnostic and cannot be suppressed. See docs/LINT.md.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
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

var suppressFlag = flag.Bool("suppressions", false, "inventory every //dcslint:ignore directive instead of analyzing")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcslint [-suppressions] package...\n\n")
		fmt.Fprintf(os.Stderr, "analyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

func run(args []string) int {
	switch {
	case len(args) == 0:
		flag.Usage()
		return 2
	case *suppressFlag:
		return runSuppressions(args)
	default:
		return runAnalysis(args)
	}
}

// runAnalysis loads the listing with `go list -export` and analyzes
// the root packages concurrently in dependency order: a package starts
// as soon as every root it imports has finished, so its imported facts
// are already in the shared store. Output is ordered by import path
// regardless of completion order. Diagnostics go to stdout; exit is 1
// when any were found.
func runAnalysis(patterns []string) int {
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
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
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
	for i := range l.Roots {
		if err := errsByIdx[i]; err != nil {
			fmt.Fprintf(os.Stderr, "dcslint: %s: %v\n", l.Roots[i].ImportPath, err)
			return 2
		}
		total += len(diagsByIdx[i])
		for _, d := range diagsByIdx[i] {
			fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "dcslint: %d finding(s)\n", total)
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
