package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// GobSafe checks the two ways encoding/gob silently breaks the message
// model. Entry-method arguments that are not one of internal/ser's direct
// encodings travel through the gob fallback inside an interface{} slot, so:
//
//  1. struct types reachable from entry-method parameters must not carry
//     unexported fields — gob drops them without error, and the receiver
//     observes zero values;
//  2. named struct types passed as Call/CallRet/Send arguments must be
//     gob-registered somewhere in the module (ser.RegisterType or
//     gob.Register) — decoding into interface{} needs the concrete type's
//     name registered, and the failure surfaces only at the first cross-node
//     send.
//
// Runtime types (core.Proxy & co.) are exempt: they intentionally carry
// node-local unexported state that the runtime re-binds on arrival, and the
// runtime registers them itself. So are types with custom Gob/Binary
// marshalling, and chare prototypes (Runtime.Register gob-registers them).
var GobSafe = &Analyzer{
	Name: "gobsafe",
	ID:   "CV002",
	Doc: "message struct types must survive the gob fallback: no unexported fields, " +
		"and gob-registered when passed as interface{} arguments",
	Run: runGobSafe,
}

func runGobSafe(pass *Pass) {
	// Part 1: unexported fields in structs reachable from entry-method
	// parameters.
	for _, em := range pass.EntryMethods {
		sig := em.fn.Type().(*types.Signature)
		name := fmt.Sprintf("%s.%s", em.chare.Obj().Name(), em.fn.Name())
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if offender, field := pass.Mod.TG.HiddenFields(p.Type()); offender != nil {
				pass.Reportf(paramPos(em.decl, i),
					"entry method %s parameter %d reaches struct %s whose unexported field %q is silently dropped by gob; export the field, add GobEncode/GobDecode, or keep the type node-local",
					name, i, types.TypeString(offender, types.RelativeTo(pass.Pkg)), field)
			}
		}
	}

	// Part 2: unregistered named struct types passed as proxy-call
	// arguments.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.Info, call)
			if obj == nil || !isProxySend(obj) {
				return true
			}
			// Skip the leading method-name argument of Call/CallRet.
			args := call.Args
			if obj.Name() == "Call" || obj.Name() == "CallRet" {
				if len(args) < 2 {
					return true
				}
				args = args[1:]
			}
			for _, arg := range args {
				t := pass.Info.TypeOf(arg)
				if t == nil {
					continue
				}
				named := namedOf(t)
				if named == nil || !gobNeedsRegistration(named) {
					continue
				}
				key := typeKey(t)
				if pass.Mod.GobRegistered[key] || pass.Mod.ChareRegistered[key] {
					continue
				}
				pass.Reportf(arg.Pos(),
					"%s is passed as an interface{} argument but never gob-registered: cross-node decode will fail at runtime; call ser.RegisterType(%s{}) on every node",
					key, types.TypeString(named, types.RelativeTo(pass.Pkg)))
			}
			return true
		})
	}
}

// isProxySend reports whether obj is one of core.Proxy's argument-carrying
// send methods, or Future.Send / Channel.Send (which also ship interface{}
// payloads).
func isProxySend(obj types.Object) bool {
	switch obj.Name() {
	case "Call", "CallRet":
		return isMethodOf(obj, corePkgPath, "Proxy")
	case "Insert", "InsertAt":
		return isMethodOf(obj, corePkgPath, "Proxy")
	case "Send":
		return isMethodOf(obj, corePkgPath, "Future") || isMethodOf(obj, corePkgPath, "Channel")
	}
	return false
}

// gobNeedsRegistration reports whether a named type needs an explicit gob
// registration to travel inside interface{}: named struct types without
// custom marshalling, outside the runtime package.
func gobNeedsRegistration(named *types.Named) bool {
	tn := named.Obj()
	if tn.Pkg() == nil || tn.Pkg().Path() == corePkgPath {
		return false
	}
	// Named struct types are the ones gob must resolve by registered name
	// when decoding into interface{}; custom marshalling does not lift that
	// requirement. Basic-kinded named types decode through ser's direct tags.
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// The unexported-field walk itself lives on the shared type-graph cache
// (typegraph.go, TypeGraph.HiddenFields) so gobsafe and migratesafe pay for
// each type's field graph once per run.
