package analysis

import (
	"go/ast"
	"go/types"
)

// corePkgPath is where the runtime's Chare base type lives. The public
// charmgo.Chare is an alias of it, so embedding either resolves here.
const corePkgPath = "charmgo/internal/core"

// isChareStruct reports whether named is a chare class: a struct embedding
// core.Chare, directly or through embedded structs (reflection promotes
// through any depth, and so does the runtime's Chareable check).
func isChareStruct(named *types.Named) bool {
	return embedsChare(named, map[*types.Named]bool{})
}

func embedsChare(named *types.Named, seen map[*types.Named]bool) bool {
	if named == nil || seen[named] {
		return false
	}
	seen[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Embedded() {
			continue
		}
		ft := namedOf(f.Type())
		if ft == nil {
			continue
		}
		if isNamedType(ft, corePkgPath, "Chare") {
			return true
		}
		if embedsChare(ft, seen) {
			return true
		}
	}
	return false
}

// baseMethodNames mirrors core/registry.go's baseMethods: method names the
// registry never treats as entry methods — the embedded Chare's own API
// plus the serialization/migration hooks.
var baseMethodNames = map[string]bool{
	"GobEncode": true, "GobDecode": true,
	"Migrated": true, "String": true,
}

// isBaseMethod reports whether name is excluded from entry-method
// registration for the given chare type: either a fixed hook name or a
// method promoted from the core.Chare base.
func isBaseMethod(named *types.Named, name string) bool {
	if baseMethodNames[name] {
		return true
	}
	// Methods promoted from core.Chare: resolve the selection on the chare
	// type and look at where the method is actually declared.
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		sel := ms.At(i)
		fn := sel.Obj().(*types.Func)
		if fn.Name() != name {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return false
		}
		recv := namedOf(sig.Recv().Type())
		return recv != nil && isNamedType(recv, corePkgPath, "Chare")
	}
	return false
}

// entryMethod describes one entry method declared in the analyzed package.
// Discovery lives on the Engine (engine.go, findEntryMethods) so all rules
// share one scan per package.
type entryMethod struct {
	chare *types.Named  // the chare class
	fn    *types.Func   // the method object
	decl  *ast.FuncDecl // its declaration (same package)
}
