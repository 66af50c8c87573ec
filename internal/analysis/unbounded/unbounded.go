// Package unbounded implements the dcslint analyzer that flags map and
// slice fields of long-lived structs that grow on hot paths with no
// eviction, prune, or cap reachable from any method.
//
// The failure mode is the slowest kind of outage: a dedup cache, peer
// table, or in-flight index that only ever gains entries. Under the
// adversarial churn the roadmap's harness runs (hours of join/crash/
// replay, or a peer free to invent fresh keys), such a field is an
// unmetered memory grant to the network — the replica dies by OOM long
// after the commit that caused it. The machine-checked rule: if a
// struct has a lifecycle (a Close/Stop/Run-style method — the marker
// of a component that outlives requests), then every map/slice field
// that grows outside its constructor must have *some* shrink path in
// the package — a delete, a reslice, a reset to nil/make, or a
// len-guard at the growth site. Bounded-by-design growth (an address
// book capped by config) is exactly what //dcslint:ignore with a
// reason is for.
//
// The analysis is interprocedural within the package: growth and
// shrink evidence is collected across every function (a method may
// delegate eviction to a helper), and a field is judged by the union.
package unbounded

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dcsledger/internal/analysis"
	"dcsledger/internal/analysis/goroleak"
)

// Analyzer is the unbounded-growth checker.
var Analyzer = &analysis.Analyzer{
	Name: "unbounded",
	Doc: "flags map/slice fields of long-lived structs (types with a " +
		"Close/Stop/Run lifecycle method) that grow on non-constructor paths " +
		"with no delete, reslice, reset, or len-cap reachable anywhere in the " +
		"package — unbounded growth is an OOM an adversary can schedule",
	Run: run,
}

// lifecycleMethods mark a struct as long-lived.
var lifecycleMethods = []string{"Close", "Stop", "Run", "Start", "Serve", "Shutdown"}

// evidence accumulates per-field observations across the package.
type evidence struct {
	growth []growthSite
	shrink bool
}

type growthSite struct {
	pos    token.Pos
	fn     string // enclosing function name, for the report
	capped bool   // a len(field) guard appears in the same function
}

func run(pass *analysis.Pass) error {
	if analysis.InPackages(pass.Path, []string{"internal/analysis"}) {
		return nil // analyzer scaffolding is not a replica component
	}

	longLived := lifecycleFields(pass)
	if len(longLived) == 0 {
		return nil
	}

	ev := map[*types.Var]*evidence{}
	rec := func(field *types.Var) *evidence {
		e := ev[field]
		if e == nil {
			e = &evidence{}
			ev[field] = e
		}
		return e
	}

	graph := analysis.BuildCallGraph(pass)
	for _, fn := range graph.Functions() {
		decl := graph.Decls[fn]
		isCtor := strings.HasPrefix(fn.Name(), "New") || strings.HasPrefix(fn.Name(), "Open")
		isCleanup := false
		for _, m := range lifecycleMethods {
			if fn.Name() == m && (m == "Close" || m == "Stop" || m == "Shutdown") {
				isCleanup = true
			}
		}
		guards := lenGuardedFields(pass, decl.Body, longLived)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					field := fieldOf(pass, lhs, longLived)
					indexed := false
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						field = fieldOf(pass, ix.X, longLived)
						indexed = true
					}
					if field == nil {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					classifyAssign(pass, rec(field), field, indexed, rhs, n.Pos(), fn.Name(), isCtor || isCleanup, isCtor, guards[field])
				}
			case *ast.CallExpr:
				// delete(x.f, k)
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) >= 1 {
					if field := fieldOf(pass, n.Args[0], longLived); field != nil {
						rec(field).shrink = true
					}
				}
			}
			return true
		})
	}

	for field, e := range ev {
		if e.shrink {
			continue
		}
		for _, g := range e.growth {
			if g.capped {
				continue
			}
			kind := "map"
			if _, ok := field.Type().Underlying().(*types.Slice); ok {
				kind = "slice"
			}
			pass.Reportf(g.pos,
				"%s field %s of long-lived struct %s grows in %s with no eviction, prune, or cap reachable from any method in %s: an adversary supplying fresh keys turns this into a scheduled OOM — bound it (len guard, ring, or TTL sweep) or delete entries on the shutdown/ack path",
				kind, field.Name(), ownerName(field), g.fn, pass.Path)
			break // one report per field
		}
	}
	return nil
}

// classifyAssign records one assignment touching a tracked field as
// growth or shrink. growthExempt covers constructors and cleanup
// methods (their inserts don't accumulate on hot paths); shrinkExempt
// covers constructors only — `x.f = make(...)` in New is
// initialization, not eviction, and must not mask a real leak.
func classifyAssign(pass *analysis.Pass, e *evidence, field *types.Var, indexed bool, rhs ast.Expr, pos token.Pos, fnName string, growthExempt, shrinkExempt, guarded bool) {
	shrink := func() {
		if !shrinkExempt {
			e.shrink = true
		}
	}
	if indexed {
		// x.f[k] = v — map insert (or slice element store; element
		// stores don't grow, but only maps are indexed-assignable to new
		// keys, and field is map-typed in that case).
		if _, ok := field.Type().Underlying().(*types.Map); ok && !growthExempt {
			e.growth = append(e.growth, growthSite{pos, fnName, guarded})
		}
		return
	}
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "append":
				// append whose any argument reslices the field is
				// compaction, not growth.
				for _, a := range rhs.Args {
					if sl, ok := ast.Unparen(a).(*ast.SliceExpr); ok {
						if fieldOf(pass, sl.X, map[*types.Var]bool{field: true}) == field {
							shrink()
							return
						}
					}
				}
				if !growthExempt {
					e.growth = append(e.growth, growthSite{pos, fnName, guarded})
				}
				return
			case "make":
				shrink() // reset to empty
				return
			}
		}
	case *ast.Ident:
		if rhs.Name == "nil" {
			shrink()
			return
		}
	case *ast.SliceExpr:
		if fieldOf(pass, rhs.X, map[*types.Var]bool{field: true}) == field {
			shrink() // reslice in place
			return
		}
	case *ast.CompositeLit:
		shrink() // reset to a fresh literal
		return
	}
}

// lifecycleFields returns the map/slice fields of every package-local
// struct type judged long-lived: it has a lifecycle method, or — in
// the long-lived component packages goroleak polices — it guards its
// state with a sync.Mutex/RWMutex field (a gossip router or dedup
// cache outlives every call even when nobody thought to give it a
// Close).
func lifecycleFields(pass *analysis.Pass) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	policed := goroleak.Policed(pass.Path)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		longLived := false
		for _, m := range lifecycleMethods {
			if sel := ms.Lookup(pass.Pkg, m); sel != nil {
				longLived = true
				break
			}
		}
		if !longLived && policed {
			for i := 0; i < st.NumFields(); i++ {
				if analysis.MutexOf(st.Field(i).Type()) != analysis.NotMutex {
					longLived = true
					break
				}
			}
		}
		if !longLived {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			switch f.Type().Underlying().(type) {
			case *types.Map, *types.Slice:
				out[f] = true
			}
		}
	}
	return out
}

// fieldOf resolves e to a tracked struct field (x.f where f is in the
// tracked set), or nil.
func fieldOf(pass *analysis.Pass, e ast.Expr, tracked map[*types.Var]bool) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !tracked[v] {
		return nil
	}
	return v
}

// lenGuardedFields returns the tracked fields that appear under a
// len(...) call inside any if- or for-condition in body: the shape of
// an explicit cap check guarding growth in the same function.
func lenGuardedFields(pass *analysis.Pass, body *ast.BlockStmt, tracked map[*types.Var]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	scan := func(cond ast.Expr) {
		if cond == nil {
			return
		}
		ast.Inspect(cond, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" && len(call.Args) == 1 {
				if f := fieldOf(pass, call.Args[0], tracked); f != nil {
					out[f] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			scan(n.Cond)
		case *ast.ForStmt:
			scan(n.Cond)
		}
		return true
	})
	return out
}

// ownerName names the struct a field belongs to, for diagnostics.
func ownerName(f *types.Var) string {
	// The field's parent scope is the struct; recover the type name via
	// the package scope is not directly possible, so fall back to the
	// field's qualified string which embeds the struct type.
	if pkg := f.Pkg(); pkg != nil {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					return tn.Name()
				}
			}
		}
	}
	return "?"
}
