// Package goroleak implements the dcslint analyzer that demands a
// provable stop path for every goroutine launched in a long-lived
// component.
//
// The churn scenarios the roadmap's adversarial harness needs (nodes
// joining, crashing, reconnecting for hours) turn a single
// fire-and-forget goroutine into a linear leak: every reconnect spawns
// another loop that nothing ever stops. The rule this analyzer
// machine-checks is the repo's existing convention: a goroutine that
// loops must be wired to the component's lifecycle — a
// context.Context's Done/Err, a done-channel some Close/Stop closes,
// or a sync.WaitGroup the component Waits on (Close blocking on
// wg.Wait proves the goroutine exits, or Close itself hangs and every
// test catches it).
//
// The analysis is interprocedural two ways. Within a package, the body
// a `go` statement runs is resolved through the package-local call
// graph (a spawned method, or a closure calling a same-package
// helper). Across packages, two facts are exported per function:
// "calling this launches an unstoppable goroutine" (a spawner — so a
// policed package calling util.StartTicker() is flagged at the call
// site) and "this loops forever with no stop token" (so `go
// util.Forever()` is flagged at the spawn). Only long-lived component
// packages — p2p (incl. gossip), node, wal, nodestore, seglog — report;
// everything else just exports facts.
//
// One-shot goroutines (no unbounded loop) are exempt: they terminate
// by construction and cannot accumulate.
package goroleak

import (
	"go/ast"
	"go/types"

	"dcsledger/internal/analysis"
)

// Analyzer is the goroutine-lifecycle checker.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "flags goroutines in long-lived components (p2p, node, wal, nodestore, seglog) " +
		"that loop with no provable stop path (context, closed done-channel, or " +
		"Waited WaitGroup), including spawns laundered through helper calls",
	Run: run,
}

// Fact kinds.
const (
	// KindSpawner marks a function that launches an unstoppable
	// goroutine when called.
	KindSpawner = "spawner"
	// KindLoop marks a function that is itself an unbounded loop with
	// no stop token — dangerous as a `go` target.
	KindLoop = "loop"
)

// A LeakFact marks a function as a goroutine-lifecycle hazard for
// callers in other packages.
type LeakFact struct {
	Kind string // KindSpawner or KindLoop
	Via  string // witness, e.g. "goroutine at tick.go:12" or "Forever"
}

// AFact marks LeakFact as a fact type.
func (*LeakFact) AFact() {}

// policedMarkers are the long-lived component packages where findings
// are reported. Everything else only exports facts.
var policedMarkers = []string{
	"internal/p2p",
	"internal/node",
	"internal/wal",
	"internal/nodestore",
	"internal/seglog",
}

// Policed reports whether an import path belongs to the long-lived
// component set.
func Policed(path string) bool { return analysis.InPackages(path, policedMarkers) }

// stopTokens is the package-wide set of lifecycle objects a goroutine
// body may reference to prove it stops.
type stopTokens struct {
	closedChans map[types.Object]bool // channel vars/fields close()d somewhere
	waitedWGs   map[types.Object]bool // WaitGroup vars/fields .Wait()ed somewhere
}

func run(pass *analysis.Pass) error {
	if analysis.InPackages(pass.Path, []string{"internal/analysis"}) {
		return nil // the suite itself is not a replica component
	}
	graph := analysis.BuildCallGraph(pass)
	tokens := collectStopTokens(pass)
	policed := Policed(pass.Path)

	// Phase 1: classify every `go` statement, reporting (policed) or
	// marking the enclosing function a spawner (for fact export).
	spawners := map[*types.Func]string{} // fn → witness
	loopFns := map[*types.Func]bool{}
	for _, fn := range graph.Functions() {
		decl := graph.Decls[fn]
		if isUnstoppableLoop(pass, graph, decl.Body, tokens) {
			loopFns[fn] = true
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			witness, bad := classifySpawn(pass, graph, gs, tokens, loopFns)
			if !bad {
				return true
			}
			if policed {
				pass.Reportf(gs.Pos(),
					"goroutine launched in long-lived component %s has no provable stop path (%s): no context.Done/Err, no done-channel closed by Close/Stop, no WaitGroup this package Waits on — it outlives shutdown and accumulates under churn",
					pass.Path, witness)
			} else if _, seen := spawners[fn]; !seen {
				spawners[fn] = witness
			}
			return true
		})
	}

	// Phase 2: propagate spawner facts up the call graph (a function
	// that calls a spawner is a spawner) and across packages.
	graph.Fixpoint(func(caller *types.Func, call analysis.ResolvedCall) bool {
		if _, already := spawners[caller]; already {
			return false
		}
		callee := call.Callee
		if callee.Pkg() == pass.Pkg {
			if w, ok := spawners[callee]; ok {
				spawners[caller] = callee.Name() + " → " + w
				return true
			}
			return false
		}
		var fact LeakFact
		if pass.ImportFunctionFact(callee, &fact) && fact.Kind == KindSpawner {
			spawners[caller] = callee.Name() + " → " + fact.Via
			return true
		}
		return false
	})

	// Phase 3: export facts (non-policed packages only — policed spawn
	// sites were already reported where they occur).
	if !policed {
		for _, fn := range graph.Functions() {
			if w, ok := spawners[fn]; ok {
				pass.ExportFunctionFact(fn, &LeakFact{Kind: KindSpawner, Via: w})
			} else if loopFns[fn] {
				pass.ExportFunctionFact(fn, &LeakFact{Kind: KindLoop, Via: fn.Name()})
			}
		}
		return nil
	}

	// Phase 4 (policed only): report calls into other packages that
	// launch unstoppable goroutines.
	for _, fn := range graph.Functions() {
		for _, call := range graph.Calls[fn] {
			callee := call.Callee
			if callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
				continue
			}
			var fact LeakFact
			if pass.ImportFunctionFact(callee, &fact) && fact.Kind == KindSpawner {
				pass.Reportf(call.Site.Pos(),
					"call to %s launches a goroutine with no provable stop path (via %s): wire it to this component's Close/Stop lifecycle or it accumulates under churn",
					callee.Name(), callee.Name()+" → "+fact.Via)
			}
		}
	}
	return nil
}

// isUnstoppableLoop reports whether a function body is an unbounded
// loop with no stop token — the shape that makes the function a
// dangerous `go` target for other packages.
func isUnstoppableLoop(pass *analysis.Pass, graph *analysis.CallGraph, body *ast.BlockStmt, tokens stopTokens) bool {
	_ = graph
	return hasUnboundedLoop(pass, body) && !referencesStopToken(pass, body, tokens) && !takesContext(pass, body)
}

// takesContext reports whether body is enclosed by a function whose
// parameters include a context.Context — accepting one is the
// conventional promise that the loop honours cancellation even when
// the body only passes ctx through to blocking calls.
func takesContext(pass *analysis.Pass, body *ast.BlockStmt) bool {
	// The body's enclosing FuncDecl/FuncLit params are not reachable
	// from the block; scan files for the declaration owning this body.
	for _, f := range pass.Files {
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			var ft *ast.FuncType
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == body {
					ft = n.Type
				}
			case *ast.FuncLit:
				if n.Body == body {
					ft = n.Type
				}
			}
			if ft == nil {
				return true
			}
			for _, p := range ft.Params.List {
				if t := pass.TypeOf(p.Type); t != nil && isContext(t) {
					found = true
				}
			}
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// collectStopTokens scans the whole package for lifecycle machinery:
// channels that are close()d and WaitGroups that are Wait()ed.
func collectStopTokens(pass *analysis.Pass) stopTokens {
	t := stopTokens{
		closedChans: map[types.Object]bool{},
		waitedWGs:   map[types.Object]bool{},
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// close(x) on an ident or field selector.
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
				if obj := exprObject(pass, call.Args[0]); obj != nil {
					t.closedChans[obj] = true
				}
				return true
			}
			// x.Wait() on a sync.WaitGroup.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if recv := analysis.ReceiverType(pass.TypesInfo, call); recv != nil && isWaitGroup(recv) {
					if obj := exprObject(pass, sel.X); obj != nil {
						t.waitedWGs[obj] = true
					}
				}
			}
			return true
		})
	}
	return t
}

// exprObject resolves an ident or a field selector to its object.
func exprObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.ObjectOf(e)
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return pass.ObjectOf(e.Sel)
	}
	return nil
}

func isWaitGroup(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// classifySpawn decides whether one `go` statement launches an
// unstoppable loop. It resolves the goroutine's body through the
// package-local call graph (closure bodies, same-package callees up to
// a small depth) and cross-package loop facts.
func classifySpawn(pass *analysis.Pass, graph *analysis.CallGraph, gs *ast.GoStmt, tokens stopTokens, loopFns map[*types.Func]bool) (witness string, bad bool) {
	bodies, externalLoop := spawnBodies(pass, graph, gs)
	if externalLoop != "" {
		// `go otherpkg.Forever()` — the loop fact already proved no
		// internal stop token; a wrapper body with its own token (e.g.
		// select on done around the call) was collected in bodies.
		for _, b := range bodies {
			if referencesStopToken(pass, b, tokens) {
				return "", false
			}
		}
		return "runs " + externalLoop + ", which loops with no stop token", true
	}
	unbounded := false
	for _, b := range bodies {
		if hasUnboundedLoop(pass, b) {
			unbounded = true
			break
		}
	}
	if !unbounded {
		return "", false // one-shot goroutine: terminates by construction
	}
	for _, b := range bodies {
		if referencesStopToken(pass, b, tokens) || takesContext(pass, b) {
			return "", false
		}
	}
	return "loops without a stop token", true
}

// spawnBodies collects the statement bodies a `go` statement executes:
// the closure literal or same-package function declaration, plus the
// bodies of same-package functions they call (bounded depth). If the
// spawn target (or a body call) is a cross-package function carrying a
// loop fact, its name is returned as externalLoop.
func spawnBodies(pass *analysis.Pass, graph *analysis.CallGraph, gs *ast.GoStmt) (bodies []*ast.BlockStmt, externalLoop string) {
	type item struct {
		body  *ast.BlockStmt
		depth int
	}
	var queue []item
	seen := map[*ast.BlockStmt]bool{}

	addCallee := func(call *ast.CallExpr, depth int) {
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		if fn.Pkg() == pass.Pkg {
			if decl, ok := graph.Decls[fn]; ok && !seen[decl.Body] {
				seen[decl.Body] = true
				queue = append(queue, item{decl.Body, depth})
			}
			return
		}
		var fact LeakFact
		if externalLoop == "" && pass.ImportFunctionFact(fn, &fact) && fact.Kind == KindLoop {
			externalLoop = fn.Name()
		}
	}

	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		seen[lit.Body] = true
		queue = append(queue, item{lit.Body, 0})
	} else {
		addCallee(gs.Call, 0)
	}

	const maxDepth = 3
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		bodies = append(bodies, it.body)
		if it.depth >= maxDepth {
			continue
		}
		ast.Inspect(it.body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				addCallee(call, it.depth+1)
			}
			return true
		})
	}
	return bodies, externalLoop
}

// hasUnboundedLoop reports whether body contains a loop with no
// intrinsic bound: `for {}` / `for cond {}` (no init/post), or a range
// over a channel. Three-clause for loops and ranges over slices, maps,
// and integers are bounded per iteration set.
func hasUnboundedLoop(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init == nil && n.Post == nil {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// referencesStopToken reports whether body touches any lifecycle
// object: a context's Done/Err, a channel the package closes, or a
// WaitGroup the package Waits on.
func referencesStopToken(pass *analysis.Pass, body *ast.BlockStmt, tokens stopTokens) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Done" || sel.Sel.Name == "Err") {
				if recv := pass.TypeOf(sel.X); recv != nil && isContext(recv) {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if obj := pass.ObjectOf(n); obj != nil && (tokens.closedChans[obj] || tokens.waitedWGs[obj]) {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if s, ok := pass.TypesInfo.Selections[n]; ok && s.Kind() == types.FieldVal {
				if obj := s.Obj(); tokens.closedChans[obj] || tokens.waitedWGs[obj] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func isContext(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
