// Package determinism implements the dcslint analyzer that keeps
// consensus-critical packages replica-deterministic.
//
// The DCS conjecture only holds if every replica computes the same
// branch-selection and state-transition results from the same inputs.
// Three implementation-level leaks break that silently:
//
//   - wall-clock reads (time.Now / time.Since / time.Until) — two
//     replicas never agree on "now", so any decision derived from it
//     forks;
//   - process-global math/rand — unseeded and unshared, so proposal
//     jitter, eviction choices, and shuffles differ per process;
//   - Go map iteration order — deliberately randomized per run, so any
//     hash, proposal body, callback fan-out, or "first match" choice
//     fed from a bare `range m` differs across replicas.
//
// A source written in critical code is reported where it is written. A
// helper one hop away would hide it:
//
//	package util                       // not consensus-critical
//	func Stamp() int64 { return time.Now().UnixNano() }
//
//	package consensus                  // critical — and silently forked
//	func propose() { h.deadline = util.Stamp() }
//
// so the analyzer also tracks taint: every function, in every package,
// is classified by the sources it transitively reaches — the wall
// clock, the process-global math/rand, or map-iteration order escaping
// through its return value. The classification propagates over the
// package-local call graph to a fixpoint and is exported as a TaintFact
// alongside the package's export data, which dependent packages import
// — so the taint follows calls across package boundaries exactly like
// go vet's facts protocol. Inside consensus-critical packages, every
// call to a tainted function is reported at the call site, with the
// chain of helpers that reaches the source.
//
// Reports are made only inside the consensus-critical package set
// (consensus engines, state, exec, node, the merkle/mpt/iavl
// commitments, the mempool, the scenario harness, and the code whose
// output is hashed: vm, contract, types, wire, store, incentive);
// simulation harnesses and the network layer may use wall time and
// jitter freely. Packages whose relationship with wall time is
// sanctioned by design — internal/obs (observability stopwatches),
// internal/simclock (the injectable clock itself), internal/metrics —
// neither export taint nor are reported: they are the audited funnels
// critical code is *supposed* to route timing through.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dcsledger/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flags wall-clock reads, package-global math/rand, and order-dependent " +
		"map iteration in consensus-critical packages, written there or reached " +
		"through helper functions (same-package and cross-package via facts); " +
		"inject simclock.Clock, a seeded *rand.Rand, or sort the keys instead",
	Run: run,
}

// criticalMarkers are the package subtrees the analyzer reports in.
// "internal/consensus" covers every engine subpackage.
var criticalMarkers = []string{
	"internal/consensus",
	"internal/state",
	"internal/exec",
	"internal/node",
	"internal/merkle",
	"internal/mpt",
	"internal/iavl",
	"internal/txpool",
	"internal/scenario",
	"internal/vm",
	"internal/contract",
	"internal/types",
	"internal/wire",
	"internal/store",
	"internal/incentive",
}

// Critical reports whether an import path belongs to the
// consensus-critical set the analyzer polices.
func Critical(path string) bool { return analysis.InPackages(path, criticalMarkers) }

// sanctionedMarkers are the packages whose wall-clock/randomness use
// is by design: the audited funnels critical code routes timing
// through. They neither export taint facts nor trigger reports.
var sanctionedMarkers = []string{
	"internal/obs",
	"internal/simclock",
	"internal/metrics",
	"internal/analysis",
}

// globalRandExceptions are math/rand package functions that do not
// touch the process-global source: constructors for injectable,
// seeded generators.
var globalRandExceptions = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Taint kinds, in the order they render in diagnostics.
const (
	KindGlobalRand = "globalrand"
	KindMapOrder   = "maporder"
	KindWallClock  = "wallclock"
)

// kindDesc renders one kind for humans.
var kindDesc = map[string]string{
	KindGlobalRand: "process-global math/rand",
	KindMapOrder:   "map-iteration order",
	KindWallClock:  "a wall clock (time.Now/Since)",
}

// A TaintFact marks a function that transitively reaches a
// nondeterminism source. Via is one witness chain ("Stamp → time.Now")
// used in diagnostics.
type TaintFact struct {
	Kinds []string // sorted subset of {globalrand, maporder, wallclock}
	Via   string
}

// AFact marks TaintFact as a fact type.
func (*TaintFact) AFact() {}

// taint is the per-function analysis state.
type taint struct {
	kinds map[string]bool
	via   string
}

func run(pass *analysis.Pass) error {
	if analysis.InPackages(pass.Path, sanctionedMarkers) {
		return nil
	}
	critical := Critical(pass.Path)
	graph := analysis.BuildCallGraph(pass)

	taints := map[*types.Func]*taint{}
	mark := func(fn *types.Func, kind, via string) bool {
		t := taints[fn]
		if t == nil {
			t = &taint{kinds: map[string]bool{}, via: via}
			taints[fn] = t
		}
		if t.kinds[kind] {
			return false
		}
		t.kinds[kind] = true
		return true
	}
	// tainted returns what a callee reaches: from this package's state,
	// or from the fact its own package exported.
	tainted := func(callee *types.Func) (kinds []string, via string) {
		if callee.Pkg() == pass.Pkg {
			if t := taints[callee]; t != nil {
				return sortedKinds(t.kinds), t.via
			}
			return nil, ""
		}
		var fact TaintFact
		if callee.Pkg() != nil && pass.ImportFunctionFact(callee, &fact) {
			return fact.Kinds, fact.Via
		}
		return nil, ""
	}

	// Seed: the sources each function body reaches itself, reported
	// where they are written in critical code.
	for _, fn := range graph.Functions() {
		checkFunc(pass, fn, graph.Decls[fn], critical, mark)
	}

	// Propagate over the package-local call graph, importing facts at
	// package boundaries, until fixpoint.
	graph.Fixpoint(func(caller *types.Func, call analysis.ResolvedCall) bool {
		kinds, via := tainted(call.Callee)
		changed := false
		for _, k := range kinds {
			if mark(caller, k, call.Callee.Name()+" → "+via) {
				changed = true
			}
		}
		return changed
	})

	// Export a fact for every tainted function so dependent packages
	// see the taint, and report, in critical packages, every call to a
	// tainted helper.
	for _, fn := range graph.Functions() {
		if t := taints[fn]; t != nil {
			pass.ExportFunctionFact(fn, &TaintFact{Kinds: sortedKinds(t.kinds), Via: t.via})
		}
		if !critical {
			continue
		}
		for _, call := range graph.Calls[fn] {
			kinds, via := tainted(call.Callee)
			if len(kinds) == 0 {
				continue
			}
			name := call.Callee.Name()
			pass.Reportf(call.Site.Pos(),
				"call to %s in consensus-critical package %s reaches %s (via %s): nondeterminism laundered through helpers forks replicas; inject a simclock.Clock or seeded *rand.Rand, or sort before the value escapes",
				name, pass.Path, describeKinds(kinds), name+" → "+via)
		}
	}
	return nil
}

// checkFunc walks one function body: it marks fn with every source the
// body reaches itself — wall-clock and global-rand calls, and
// map-iteration order escaping through a return value — and, in
// critical code, reports each source and map-order hazard where it is
// written.
func checkFunc(pass *analysis.Pass, fn *types.Func, decl *ast.FuncDecl, critical bool, mark func(*types.Func, string, string) bool) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			kind, name := source(pass.TypesInfo, n)
			if kind == "" {
				return true
			}
			mark(fn, kind, name)
			switch {
			case !critical:
			case kind == KindWallClock:
				pass.Reportf(n.Pos(),
					"call to %s in consensus-critical package %s: wall-clock reads diverge across replicas and fork the ledger; inject a simclock.Clock (use internal/obs helpers for observability-only timing)",
					name, pass.Path)
			default:
				pass.Reportf(n.Pos(),
					"call to package-global %s in consensus-critical package %s: the process-global generator is unseeded and unshared, so replicas draw different values; inject a seeded *rand.Rand",
					name, pass.Path)
			}
		case *ast.RangeStmt:
			if isMapRange(pass, n) && checkMapRange(pass, n, decl, critical) {
				mark(fn, KindMapOrder, "map range")
			}
		}
		return true
	})
}

// source classifies a call as a nondeterminism source, returning its
// kind and its name as diagnostics print it ("time.Now", "rand.Intn"),
// or "" for any other call. Methods (time.Time.Sub etc.) derive from a
// value already read, and the math/rand constructors build the
// injectable generators.
func source(info *types.Info, call *ast.CallExpr) (kind, name string) {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return KindWallClock, "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !globalRandExceptions[fn.Name()] {
			return KindGlobalRand, fn.Pkg().Name() + "." + fn.Name()
		}
	}
	return "", ""
}

func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one `range m` loop over a map. It returns
// whether iteration order escapes through the enclosing function's
// return value: an early return of a loop-dependent value ("first
// match wins"), or an append to a slice the function returns without
// sorting it after the loop. With report set it also reports the
// order-dependence hazards: order leaking into an (unsorted) slice,
// hash state written per iteration, callbacks invoked per iteration,
// and early exits that capture a loop variable. Pure folds — counting,
// min/max with total tie-breaks, set building, deletes — pass
// untouched. A nested map range reports its own hazards, but what it
// returns or appends still counts toward this loop's escape.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, decl *ast.FuncDecl, report bool) (escapes bool) {
	loopVars := rangeVars(pass, rs)
	captures := false        // loop-var-derived value stored outside the loop
	nestedEnd := token.NoPos // end of the latest nested map range

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		own := report && n.Pos() >= nestedEnd
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later; out of scope for order analysis
		case *ast.RangeStmt:
			if isMapRange(pass, n) {
				nestedEnd = max(nestedEnd, n.End())
			}
		case *ast.AssignStmt:
			if obj := appendTarget(pass, n, rs); obj != nil && !sortedAfter(pass, decl.Body, obj, rs.End()) {
				if own {
					pass.Reportf(n.Pos(),
						"map iteration order leaks into slice %q: append inside `range` over a map produces a different order on every replica; sort the map keys first or sort %q before use",
						obj.Name(), obj.Name())
				}
				escapes = escapes || returnsObject(pass, decl, obj)
			}
			captures = captures || own && assignsOutside(pass, n, rs, loopVars)
		case *ast.CallExpr:
			if own {
				checkLoopCall(pass, n)
			}
		case *ast.ReturnStmt:
			if analysis.UsesObject(pass.TypesInfo, n, loopVars) {
				escapes = true
				if own {
					pass.Reportf(n.Pos(),
						"return of a loop-dependent value inside map iteration: which element is returned depends on randomized map order; collect and sort the keys first")
				}
			}
		}
		return true
	})

	// A break combined with a loop-var value escaping to an outer
	// variable is the "pick some element" pattern.
	if pos := directBreak(rs); pos.IsValid() && captures {
		pass.Reportf(pos,
			"break after capturing a map element: the chosen element depends on randomized iteration order; iterate sorted keys or fold over all elements")
	}
	return escapes
}

// rangeVars returns the objects of the loop's key/value variables.
func rangeVars(pass *analysis.Pass, rs *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := pass.ObjectOf(id); o != nil {
				out[o] = true
			}
		}
	}
	return out
}

// appendTarget returns the object of a slice declared outside the loop
// body and grown by `s = append(s, ...)` inside it, or nil.
func appendTarget(pass *analysis.Pass, as *ast.AssignStmt, rs *ast.RangeStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fid.Name != "append" {
		return nil
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.ObjectOf(lhs)
	if obj == nil || obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End() {
		return nil // declared inside the loop body: order cannot leak out this way
	}
	return obj
}

// sortedAfter reports whether fnBody contains, after pos, a recognized
// sorting call applied to obj.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
			return true
		}
		name := fn.Name()
		sorter := strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "Slice") ||
			name == "Strings" || name == "Ints" || name == "Float64s" || name == "Stable"
		if !sorter {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// returnsObject reports whether any return statement of decl (or a
// named result) carries obj.
func returnsObject(pass *analysis.Pass, decl *ast.FuncDecl, obj types.Object) bool {
	if res := decl.Type.Results; res != nil {
		for _, f := range res.List {
			for _, name := range f.Names {
				if pass.ObjectOf(name) == obj {
					return true // named result: every return carries it
				}
			}
		}
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if analysis.UsesObject(pass.TypesInfo, ret, map[types.Object]bool{obj: true}) {
			found = true
		}
		return !found
	})
	return found
}

// assignsOutside reports whether as stores a loop-var-derived value
// into a variable declared outside the loop (excluding appends, which
// appendTarget owns, and excluding writes through index or field
// expressions, which are keyed and hence order-independent).
func assignsOutside(pass *analysis.Pass, as *ast.AssignStmt, rs *ast.RangeStmt, loopVars map[types.Object]bool) bool {
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue // indexed/field writes are keyed
		}
		obj := pass.ObjectOf(id)
		if obj == nil || id.Name == "_" {
			continue
		}
		if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
			continue // loop-local
		}
		rhs := as.Rhs[0]
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" {
				continue
			}
		}
		if analysis.UsesObject(pass.TypesInfo, rhs, loopVars) {
			return true
		}
	}
	return false
}

// checkLoopCall flags hash writes and dynamic callback invocations
// performed per map-iteration.
func checkLoopCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Write" || sel.Sel.Name == "Sum" {
			if recv := analysis.ReceiverType(info, call); recv != nil &&
				analysis.IsHashWriter(recv, pass.Pkg) {
				pass.Reportf(call.Pos(),
					"hash state written during map iteration: digests are order-sensitive and map order is randomized per replica; hash over sorted keys")
				return
			}
		}
	}
	if analysis.IsDynamicCall(info, call) {
		pass.Reportf(call.Pos(),
			"callback invoked during map iteration: invocation order is randomized per replica; snapshot the entries, sort, then invoke")
	}
}

// directBreak returns the position of the first break statement
// belonging to rs itself (not to a nested loop or switch), or NoPos.
func directBreak(rs *ast.RangeStmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && n.Label == nil {
				pos = n.Pos()
			}
			return false
		case *ast.RangeStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // their breaks are not ours
		}
		return true
	})
	return pos
}

func sortedKinds(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func describeKinds(kinds []string) string {
	descs := make([]string, len(kinds))
	for i, k := range kinds {
		descs[i] = kindDesc[k]
	}
	return strings.Join(descs, " and ")
}
