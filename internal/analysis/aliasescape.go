package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AliasEscape checks the lifetime contract of zero-copy message payloads.
// ser.DecodeArgsAlias (and the flat codecs' alias mode) hand entry methods
// []byte values that alias the delivery buffer instead of copying out of it;
// the runtime retires that buffer as soon as the entry method returns. Any
// alias that survives the return — stored in a chare field or a package
// variable, sent on a channel, captured by a goroutine — is silently
// overwritten by an unrelated frame later. The race detector only sees the
// unlucky interleavings; charmvet rejects the escape structurally.
//
// The rule runs on the shared dataflow engine. Taint sources are the
// parameters of entry methods whose types can carry an aliasing []byte
// (TypeGraph.CanAliasBytes) and the results of direct ser.DecodeArgsAlias
// calls anywhere. Taint follows value flow — slicing, type assertions,
// field/element projection, composite literals — and dies at the sanctioned
// copies: ser.Clone, bytes.Clone, a string conversion, or a byte-spread
// append (append(dst, t...) copies the bytes). Escapes are reported at the
// offending expression; same-package helpers are seen through via call
// summaries (callsum.go), so handing the alias to a local function that
// stores it is still caught.
//
// The runtime packages that implement the buffer contract (core, ser,
// transport) are exempt: they are the owner side of the lifetime rule.
// Proxy/Future/Channel sends are also safe sinks — their payloads are
// serialized (copied) on the way out.
var AliasEscape = &Analyzer{
	Name: "aliasescape",
	ID:   "CV007",
	Doc: "[]byte values aliasing a zero-copy message buffer must not outlive " +
		"the entry method; clone them (ser.Clone) before storing, sending, " +
		"or sharing them with a goroutine",
	Run: runAliasEscape,
}

// aliasExemptPkgs implement the zero-copy contract and legitimately retain
// or recycle the buffers they decode from.
var aliasExemptPkgs = map[string]bool{
	"charmgo/internal/core":      true,
	"charmgo/internal/ser":       true,
	"charmgo/internal/transport": true,
}

const aliasEscapeMsg = "%s aliases the message buffer but escapes the entry method (%s); the buffer is recycled after return and will be overwritten by an unrelated frame — keep a copy with ser.Clone"

const aliasEscapeHelperMsg = "%s aliases the message buffer but is passed to %s, which stores it beyond the call; keep a copy with ser.Clone first"

func runAliasEscape(pass *Pass) {
	if aliasExemptPkgs[pass.Pkg.Path()] {
		return
	}
	// Entry methods: alias-capable parameters are sources.
	for _, em := range pass.Eng.EntryMethods() {
		if em.decl.Body == nil {
			continue
		}
		entry := State{}
		for _, field := range em.decl.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				if obj != nil && pass.Mod.TG.CanAliasBytes(obj.Type()) {
					entry[obj] = Fact{Pos: name.Pos()}
				}
			}
		}
		aliasFlow(pass, em.decl.Body, entry, receiverObj(pass.Info, em.decl))
	}
	// Any other function calling DecodeArgsAlias directly: the results are
	// sources even outside entry methods.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isEntryDecl(pass, fd) {
				continue
			}
			if !callsDecodeAlias(pass.Info, fd.Body) {
				continue
			}
			var recv types.Object
			if fd.Recv != nil {
				recv = receiverObj(pass.Info, fd)
			}
			aliasFlow(pass, fd.Body, State{}, recv)
		}
	}
}

func isEntryDecl(pass *Pass, fd *ast.FuncDecl) bool {
	for _, em := range pass.Eng.EntryMethods() {
		if em.decl == fd {
			return true
		}
	}
	return false
}

func callsDecodeAlias(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isFunc(calleeObject(info, call), "charmgo/internal/ser", "DecodeArgsAlias") {
				found = true
			}
		}
		return !found
	})
	return found
}

// aliasFlow runs the taint analysis over one function body. recv (may be
// nil) makes stores rooted at the receiver reportable as chare-field stores.
func aliasFlow(pass *Pass, body *ast.BlockStmt, entry State, recv types.Object) {
	info := pass.Info
	tg := pass.Mod.TG
	sums := pass.Eng.Summaries()

	// carrier reports whether expr's value may alias a tainted buffer,
	// returning the position to report. Sanitizers sever the chain; the
	// check is type-gated so scalar projections (len(t), t[0]) never carry.
	var carrier func(e ast.Expr, state State) (token.Pos, bool)
	carrier = func(e ast.Expr, state State) (token.Pos, bool) {
		e = ast.Unparen(e)
		t := info.TypeOf(e)
		if t == nil || !tg.CanAliasBytes(t) {
			return token.NoPos, false
		}
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				if _, ok := state[obj]; ok {
					return x.Pos(), true
				}
			}
		case *ast.SliceExpr:
			return carrier(x.X, state)
		case *ast.IndexExpr:
			return carrier(x.X, state)
		case *ast.SelectorExpr:
			return carrier(x.X, state)
		case *ast.StarExpr:
			return carrier(x.X, state)
		case *ast.UnaryExpr:
			return carrier(x.X, state)
		case *ast.TypeAssertExpr:
			return carrier(x.X, state)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if pos, ok := carrier(el, state); ok {
					return pos, true
				}
			}
		case *ast.CallExpr:
			if isAliasSanitizer(info, x) {
				return token.NoPos, false
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(info, id) {
				// Builtin append: the destination's taint survives; a
				// byte-spread source is copied in, any other element keeps
				// its alias.
				if len(x.Args) > 0 {
					if pos, ok := carrier(x.Args[0], state); ok {
						return pos, true
					}
				}
				for _, a := range x.Args[1:] {
					if x.Ellipsis != token.NoPos && a == x.Args[len(x.Args)-1] {
						if sl, ok := info.TypeOf(a).Underlying().(*types.Slice); ok {
							if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
								continue // append(dst, t...) copies the bytes
							}
						}
					}
					if pos, ok := carrier(a, state); ok {
						return pos, true
					}
				}
				return token.NoPos, false
			}
			// A call result built from a tainted argument may alias it
			// (bytes.TrimSpace, a local trim helper): stay conservative.
			for _, a := range x.Args {
				if pos, ok := carrier(a, state); ok {
					return pos, true
				}
			}
		}
		return token.NoPos, false
	}

	// sinkRoot classifies where a non-identifier store lands: the chare
	// receiver, a package-level variable, or neither.
	sinkRoot := func(lhs ast.Expr) (string, bool) {
		root := lhs
		for {
			switch x := ast.Unparen(root).(type) {
			case *ast.SelectorExpr:
				root = x.X
			case *ast.IndexExpr:
				root = x.X
			case *ast.StarExpr:
				root = x.X
			default:
				id, ok := ast.Unparen(root).(*ast.Ident)
				if !ok {
					return "", false
				}
				obj := info.Uses[id]
				if obj == nil {
					obj = info.Defs[id]
				}
				if obj == nil {
					return "", false
				}
				if recv != nil && obj == recv {
					return "stored in chare field", true
				}
				if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
					return "stored in package variable", true
				}
				return "", false
			}
		}
	}

	exprStr := func(e ast.Expr) string {
		if pos, ok := nodeIdentName(e); ok {
			return pos
		}
		return "the value"
	}

	step := func(n ast.Node, state State, report bool) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for li, lhs := range x.Lhs {
				var rhs ast.Expr
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[li]
				} else if len(x.Rhs) == 1 {
					rhs = x.Rhs[0]
				}
				if id, ok := lhs.(*ast.Ident); ok {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj == nil {
						continue
					}
					// A plain store to a package-level variable is a sink,
					// not a rebinding: the alias outlives every call.
					if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
						if rhs != nil {
							if pos, ok := carrier(rhs, state); ok && report {
								pass.Reportf(pos, aliasEscapeMsg, exprStr(rhs), "stored in package variable "+id.Name)
							}
						}
						continue
					}
					switch {
					case rhs != nil && isDecodeAliasCall(info, rhs) && li == 0:
						state[obj] = Fact{Pos: id.Pos()}
					case rhs != nil:
						if _, ok := carrier(rhs, state); ok && tg.CanAliasBytes(obj.Type()) {
							state[obj] = Fact{Pos: id.Pos()}
						} else {
							delete(state, obj)
						}
					}
					continue
				}
				// Store through a selector/index: a sink when rooted at the
				// receiver or a global, a propagation when rooted at a
				// tainted-capable local.
				if rhs == nil {
					continue
				}
				pos, isCarrier := carrier(rhs, state)
				if !isCarrier {
					continue
				}
				if kind, ok := sinkRoot(lhs); ok {
					if report {
						pass.Reportf(pos, aliasEscapeMsg, exprStr(rhs), kind+" "+exprText(lhs))
					}
					continue
				}
				if id, ok := rootIdent(lhs); ok {
					if obj := info.Uses[id]; obj != nil && tg.CanAliasBytes(obj.Type()) {
						state[obj] = Fact{Pos: pos}
					}
				}
			}
			recordDecodeAliasMulti(info, x, state)
		case *ast.RangeStmt:
			tainted := false
			if _, ok := carrier(x.X, state); ok {
				tainted = true
			}
			for _, obj := range assignTargets(info, x) {
				if tainted && tg.CanAliasBytes(obj.Type()) {
					state[obj] = Fact{Pos: x.Pos()}
				} else {
					delete(state, obj)
				}
			}
		case *ast.SendStmt:
			if pos, ok := carrier(x.Value, state); ok && report {
				pass.Reportf(pos, aliasEscapeMsg, exprStr(x.Value), "sent on a channel")
			}
		case *ast.GoStmt:
			if !report {
				return
			}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				hit := token.NoPos
				name := ""
				ast.Inspect(lit.Body, func(c ast.Node) bool {
					if hit != token.NoPos {
						return false
					}
					if id, ok := c.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							if _, tainted := state[obj]; tainted {
								hit, name = id.Pos(), id.Name
							}
						}
					}
					return true
				})
				if hit != token.NoPos {
					pass.Reportf(hit, aliasEscapeMsg, name, "shared with a goroutine")
					return
				}
			}
			for _, a := range x.Call.Args {
				if pos, ok := carrier(a, state); ok {
					pass.Reportf(pos, aliasEscapeMsg, exprStr(a), "shared with a goroutine")
					return
				}
			}
		}
		// On every non-goroutine node (including assignments and defers):
		// same-package helpers whose summary stores a parameter beyond the
		// call. Proxy/Future/Channel sends are safe sinks — serialization
		// copies the payload.
		if _, isGo := n.(*ast.GoStmt); isGo || !report {
			return
		}
		eachCall(info, n, func(call *ast.CallExpr) {
			obj := calleeObject(info, call)
			if obj != nil && isProxySend(obj) {
				return
			}
			fn2, ok := obj.(*types.Func)
			if !ok || fn2.Pkg() != pass.Pkg {
				return
			}
			vec := sums.Escapes(fn2)
			for i, pe := range vec {
				if !pe.Escaped() || i >= len(call.Args) {
					continue
				}
				if pos, ok := carrier(call.Args[i], state); ok {
					pass.Reportf(pos, aliasEscapeHelperMsg, exprStr(call.Args[i]), fn2.Name())
				}
			}
		})
	}

	Forward(pass.Eng.CFG(body), entry, step)
}

// isDecodeAliasCall reports whether e is a direct ser.DecodeArgsAlias call.
func isDecodeAliasCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return isFunc(calleeObject(info, call), "charmgo/internal/ser", "DecodeArgsAlias")
}

// recordDecodeAliasMulti handles `args, n, err := ser.DecodeArgsAlias(buf)`:
// in the multi-value form only the first result carries aliases.
func recordDecodeAliasMulti(info *types.Info, as *ast.AssignStmt, state State) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 1 {
		return
	}
	if !isDecodeAliasCall(info, as.Rhs[0]) {
		return
	}
	if id, ok := as.Lhs[0].(*ast.Ident); ok {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			state[obj] = Fact{Pos: id.Pos()}
		}
	}
}

// isAliasSanitizer reports whether call copies its input out of the message
// buffer: ser.Clone, ser.CloneArgs, bytes.Clone, or a string conversion
// (handled by the type gate — string cannot alias).
func isAliasSanitizer(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	if obj == nil {
		return false
	}
	return isFunc(obj, "charmgo/internal/ser", "Clone") ||
		isFunc(obj, "charmgo/internal/ser", "CloneArgs") ||
		isFunc(obj, "bytes", "Clone")
}

// isBuiltin reports whether id resolves to a universe builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// rootIdent returns the root identifier of a selector/index/star chain.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}

// nodeIdentName names an expression for diagnostics when it is (or roots at)
// a plain identifier.
func nodeIdentName(e ast.Expr) (string, bool) {
	if id, ok := rootIdent(e); ok {
		return id.Name, true
	}
	return "", false
}

// exprText renders a short description of a store target.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X)
	case *ast.StarExpr:
		return exprText(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "it"
}
