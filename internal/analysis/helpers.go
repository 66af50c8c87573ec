package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// InPackages reports whether an import path lies in one of the package
// subtrees the markers name. A marker is a whole run of path elements
// ("internal/consensus"): it matches the path itself, a leading or
// trailing run of its elements, or an inner run, so
// "dcsledger/internal/consensus/pow" is in "internal/consensus" while
// "dcsledger/internal/observer" is not in "internal/obs".
func InPackages(path string, markers []string) bool {
	for _, m := range markers {
		if strings.Contains("/"+path+"/", "/"+m+"/") {
			return true
		}
	}
	return false
}

// Callee resolves the called function of a CallExpr to its
// *types.Func (package-level function or method), or nil when the call
// is dynamic (a func-typed variable, field, or parameter), a builtin,
// or a type conversion.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsDynamicCall reports whether the call invokes a func-typed value
// (variable, struct field, or parameter) rather than a declared
// function, method, builtin, or conversion. Interface method calls are
// not dynamic in this sense — they resolve to a *types.Func.
func IsDynamicCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		// Computed expression (e.g. fns[i](), f()()): dynamic if it has
		// a signature type.
		if tv, ok := info.Types[fun]; ok {
			_, isSig := tv.Type.Underlying().(*types.Signature)
			return isSig && !tv.IsType() && !tv.IsBuiltin()
		}
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	_, isSig := v.Type().Underlying().(*types.Signature)
	return isSig
}

// ReceiverType returns the (pointer-stripped) type of the receiver
// expression of a method-call selector, or nil for non-selector calls.
func ReceiverType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// NamedPkgPath returns the import path of the package declaring t's
// named (or alias-resolved) type, following one level of pointer.
// It returns "" for unnamed and universe types.
func NamedPkgPath(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok && !isNamed(t) {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

func isNamed(t types.Type) bool {
	_, ok := t.(*types.Named)
	return ok
}

// HasMethods reports whether type t (or *t) has methods with every
// given name — a structural stand-in for interface satisfaction that
// needs no access to the interface's declaring package. It is how the
// analyzers recognize hash.Hash implementations (Sum + BlockSize +
// Reset) without importing hash.
func HasMethods(t types.Type, pkg *types.Package, names ...string) bool {
	if t == nil {
		return false
	}
	for _, name := range names {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

// IsHashWriter reports whether t structurally looks like a hash.Hash:
// it has Write, Sum, Reset, and BlockSize methods. bytes.Buffer and
// plain io.Writers do not qualify.
func IsHashWriter(t types.Type, pkg *types.Package) bool {
	return HasMethods(t, pkg, "Write", "Sum", "Reset", "BlockSize")
}

// MutexKind classifies a type as a sync mutex.
type MutexKind int

// Mutex classifications.
const (
	NotMutex MutexKind = iota
	PlainMutex
	RWMutex
)

// MutexOf reports whether t is sync.Mutex or sync.RWMutex (directly or
// behind one pointer).
func MutexOf(t types.Type) MutexKind {
	if t == nil {
		return NotMutex
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return NotMutex
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return NotMutex
	}
	switch obj.Name() {
	case "Mutex":
		return PlainMutex
	case "RWMutex":
		return RWMutex
	}
	return NotMutex
}

// UsesObject reports whether any identifier inside node resolves to
// one of the given objects.
func UsesObject(info *types.Info, node ast.Node, objs map[types.Object]bool) bool {
	if node == nil || len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if o := info.Uses[id]; o != nil && objs[o] {
			found = true
		}
		return !found
	})
	return found
}
