package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// EntrySig checks that entry-method signatures are invocable by the
// runtime's dispatchers. Entry methods are found via reflection
// (core/registry.go) and called through reflect.Value.Call with arguments
// decoded by internal/ser, so the compiler never sees the call: a variadic
// method, a channel-typed parameter, or a value receiver all compile and
// then fail (or silently lose state) at runtime.
var EntrySig = &Analyzer{
	Name: "entrysig",
	ID:   "CV001",
	Doc: "entry methods must have dispatcher-invocable signatures: pointer receiver, " +
		"no variadics, serializable parameter types, at most one result",
	Run: runEntrySig,
}

func runEntrySig(pass *Pass) {
	for _, em := range pass.EntryMethods {
		sig := em.fn.Type().(*types.Signature)
		name := fmt.Sprintf("%s.%s", em.chare.Obj().Name(), em.fn.Name())

		if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
			pass.Reportf(em.decl.Name.Pos(),
				"entry method %s has a value receiver: state mutations are applied to a copy and lost; use a pointer receiver", name)
		}
		if sig.Variadic() {
			pass.Reportf(em.decl.Name.Pos(),
				"entry method %s is variadic: reflect dispatch passes the final parameter as a slice and the call panics; take an explicit slice parameter", name)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if bad, path := unserializable(p.Type()); bad != "" {
				pass.Reportf(paramPos(em.decl, i),
					"entry method %s parameter %d (%s) contains %s%s: it cannot cross the wire (internal/ser has no encoding for it)",
					name, i, types.TypeString(p.Type(), types.RelativeTo(pass.Pkg)), bad, path)
			}
		}
		if sig.Results().Len() > 1 {
			pass.Reportf(em.decl.Name.Pos(),
				"entry method %s returns %d values: the dispatcher delivers only the first to the caller's future; return one value (or a struct)",
				name, sig.Results().Len())
		}
	}
}

// paramPos returns the AST position of the i-th parameter of a method
// declaration (grouped parameters like "a, b int" share one field), falling
// back to the method name.
func paramPos(decl *ast.FuncDecl, i int) token.Pos {
	if decl.Type.Params == nil {
		return decl.Name.Pos()
	}
	n := 0
	for _, field := range decl.Type.Params.List {
		names := len(field.Names)
		if names == 0 {
			names = 1 // unnamed parameter
		}
		if i < n+names {
			return field.Pos()
		}
		n += names
	}
	return decl.Name.Pos()
}

// unserializable walks t looking for types the codec cannot move between
// nodes: channels, functions, and unsafe pointers. It returns the offending
// kind and a short field path, or ("", "") when t is fine. Interface types
// are allowed (the gob fallback handles registered concrete types —
// gobsafe's territory), and types defined by the runtime itself are trusted
// (the runtime re-binds them on arrival).
func unserializable(t types.Type) (kind, path string) {
	return unserializableWalk(t, "", map[types.Type]bool{})
}

func unserializableWalk(t types.Type, path string, seen map[types.Type]bool) (string, string) {
	if seen[t] {
		return "", ""
	}
	seen[t] = true
	if named := namedOf(t); named != nil {
		tn := named.Obj()
		if tn.Pkg() != nil && tn.Pkg().Path() == corePkgPath {
			return "", "" // runtime types (Proxy, Future, ...) are rebound on arrival
		}
		if hasMethod(named, "GobEncode") || hasMethod(named, "MarshalBinary") {
			return "", "" // custom wire representation
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return "a channel", path
	case *types.Signature:
		return "a function value", path
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return "an unsafe.Pointer", path
		}
	case *types.Pointer:
		return unserializableWalk(u.Elem(), path, seen)
	case *types.Slice:
		return unserializableWalk(u.Elem(), path, seen)
	case *types.Array:
		return unserializableWalk(u.Elem(), path, seen)
	case *types.Map:
		if kind, p := unserializableWalk(u.Key(), path, seen); kind != "" {
			return kind, p
		}
		return unserializableWalk(u.Elem(), path, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue // gob skips it; gobsafe reports the truncation
			}
			if kind, p := unserializableWalk(f.Type(), path+"."+f.Name(), seen); kind != "" {
				return kind, p
			}
		}
	}
	return "", ""
}

// hasMethod reports whether *named has a method with the given name
// (declared or promoted).
func hasMethod(named *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}
