package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// A CallGraph is the package-local static call graph fact propagation
// runs over: every declared function and method of the package under
// analysis, each with the static calls its body (including nested
// function literals — a closure's calls are attributed to the
// function that created it) makes. Dynamic calls through func values
// resolve to no *types.Func and are simply absent; interface method
// calls resolve to the interface's method object, which no fact is
// ever exported for, so both fail conservative-closed: no fact, no
// propagation, no report.
type CallGraph struct {
	// Decls maps every function object declared in the package to its
	// syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Calls maps each declared function to the call expressions in its
	// body, paired with the resolved callee (nil body functions and
	// unresolvable calls are omitted).
	Calls map[*types.Func][]ResolvedCall
}

// A ResolvedCall is one static call site inside a declared function.
type ResolvedCall struct {
	Site   *ast.CallExpr
	Callee *types.Func
}

// BuildCallGraph constructs the call graph of the files under
// analysis. Only files passed in (i.e. the non-test files
// RunPackageFacts selected) contribute.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		Decls: make(map[*types.Func]*ast.FuncDecl),
		Calls: make(map[*types.Func][]ResolvedCall),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Decls[obj] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := Callee(pass.TypesInfo, call); callee != nil {
					g.Calls[obj] = append(g.Calls[obj], ResolvedCall{Site: call, Callee: callee})
				}
				return true
			})
		}
	}
	return g
}

// Functions returns the declared functions in deterministic (source
// position) order, so fact propagation and diagnostics are stable.
func (g *CallGraph) Functions() []*types.Func {
	out := make([]*types.Func, 0, len(g.Decls))
	for fn := range g.Decls {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return g.Decls[out[i]].Pos() < g.Decls[out[j]].Pos() })
	return out
}

// Fixpoint propagates a monotone per-function property over the call
// graph until nothing changes: step is called for every (caller,
// call) pair and returns true if it changed the caller's state. The
// iteration order is deterministic; convergence is guaranteed as long
// as step only ever adds information.
func (g *CallGraph) Fixpoint(step func(caller *types.Func, call ResolvedCall) bool) {
	fns := g.Functions()
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, call := range g.Calls[fn] {
				if step(fn, call) {
					changed = true
				}
			}
		}
	}
}
