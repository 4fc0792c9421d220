package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TraceHook checks that every call on a possibly-nil instrumentation handle
// is behind a nil guard. The runtime's contract (pinned by
// alloc_guard_test.go) is that the instrumentation-off hot path costs one
// predicted branch and zero allocations per event site: the runtime's one
// seam is its observer (Runtime.obs), nil unless some observer is on, and
// the tracer it fans out to may be nil on its own, so every use must follow
// the
//
//	if o := rt.obs; o != nil { o.event(...) }
//	if tr := o.tr; tr != nil { tr.Event(...) }
//
// idiom. An unguarded call site is a nil-pointer panic the moment someone
// runs without tracing — the common case — and a guard hoisted incorrectly
// (e.g. checking a different variable) is invisible in review. Metrics
// instruments are taken from a registry and so never nil.
//
// Recognized guards: an enclosing `if x != nil` (including && chains, or
// the else branch of `if x == nil`), or a preceding `if x == nil { return }`
// early exit, where x is the receiver chain's root. Handles known to be
// non-nil — the enclosing method's own receiver, or a local initialized
// directly from a tracer constructor (trace.New & friends) — are exempt.
var TraceHook = &Analyzer{
	Name: "tracehook",
	ID:   "CV004",
	Doc: "trace/metrics calls on nilable instrumentation handles must be nil-guarded " +
		"so the instrumentation-off hot path stays branch-only and alloc-free",
	Run: runTraceHook,
}

// tracerConstructors are functions whose result is never nil; locals
// initialized from them do not need guards.
var tracerConstructors = map[[2]string]bool{
	{"charmgo/internal/trace", "New"}:        true,
	{"charmgo/internal/trace", "NewWithCap"}: true,
	{"charmgo", "NewTracer"}:                 true,
	{"charmgo", "NewTracerWithCap"}:          true,
}

func runTraceHook(pass *Pass) {
	// The instrumentation packages themselves define the handles; their
	// internals are not call sites of this contract.
	switch pass.Pkg.Path() {
	case "charmgo/internal/trace", "charmgo/internal/metrics":
		return
	}
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			recv := sel.X
			handle, ok := guardExpr(pass, recv)
			if !ok {
				return
			}
			if exemptHandle(pass, handle, stack) {
				return
			}
			if guarded(pass, handle, stack) {
				return
			}
			pass.Reportf(call.Pos(),
				"call to %s.%s on a nilable instrumentation handle is not behind a nil guard: "+
					"this panics when tracing/metrics are off; use `if x := ...; x != nil { x.%s(...) }`",
				types.ExprString(recv), sel.Sel.Name, sel.Sel.Name)
		})
	}
}

// guardExpr returns the expression whose nilness the guard must test: the
// receiver itself, when it is a *trace.Tracer or an observer (the analyzer
// keys on the seam type's name, so fixtures can mirror it).
func guardExpr(pass *Pass, recv ast.Expr) (ast.Expr, bool) {
	t := pass.Info.TypeOf(recv)
	if t == nil {
		return nil, false
	}
	if isNamedType(t, "charmgo/internal/trace", "Tracer") {
		return recv, true
	}
	if n := namedOf(t); n != nil && n.Obj().Name() == "observer" {
		return recv, true
	}
	return nil, false
}

// exemptHandle reports whether the handle is known non-nil without a guard:
// the enclosing method's own receiver, or a local whose definition is a
// direct constructor call.
func exemptHandle(pass *Pass, handle ast.Expr, stack []ast.Node) bool {
	id, ok := ast.Unparen(handle).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return false
	}
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil {
			for _, f := range fd.Recv.List {
				for _, name := range f.Names {
					if pass.Info.Defs[name] == obj {
						return true
					}
				}
			}
		}
	}
	fn := enclosingFuncBody(stack)
	if fn == nil {
		return false
	}
	nonNil := false
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || pass.Info.Defs[lid] != obj || i >= len(as.Rhs) {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
				if co := calleeObject(pass.Info, call); co != nil && co.Pkg() != nil &&
					tracerConstructors[[2]string{co.Pkg().Path(), co.Name()}] {
					nonNil = true
				}
			}
		}
		return true
	})
	return nonNil
}

func enclosingFuncBody(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// guarded reports whether the node whose ancestor stack is given sits
// behind a nil guard keyed on the handle expression: an enclosing
// `if ... handle != nil ...` (call in the then-branch, or in the else-branch
// of == nil), or a preceding terminating `if handle == nil { return }` in an
// enclosing block.
func guarded(pass *Pass, handle ast.Expr, stack []ast.Node) bool {
	key := types.ExprString(ast.Unparen(handle))
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			inThen := i+1 < len(stack) && stack[i+1] == n.Body
			inElse := i+1 < len(stack) && stack[i+1] == n.Else
			if inThen && condHasNilCheck(n.Cond, key, token.NEQ) {
				return true
			}
			if inElse && condHasNilCheck(n.Cond, key, token.EQL) {
				return true
			}
		case *ast.BlockStmt:
			// Find which statement of this block encloses the call, then
			// scan earlier siblings for a terminating == nil early exit.
			if i+1 >= len(stack) {
				continue
			}
			child, ok := stack[i+1].(ast.Stmt)
			if !ok {
				continue
			}
			for _, s := range n.List {
				if s == child {
					break
				}
				ifs, ok := s.(*ast.IfStmt)
				if !ok || ifs.Else != nil {
					continue
				}
				if condHasNilCheck(ifs.Cond, key, token.EQL) && terminates(ifs.Body) {
					return true
				}
			}
		case *ast.FuncLit:
			// A closure may run after the guard's scope; only guards inside
			// the literal itself count.
			return false
		}
	}
	return false
}

// condHasNilCheck reports whether cond contains `key <op> nil` as itself or
// as an operand of the appropriate boolean chain (&& for !=, || for ==).
func condHasNilCheck(cond ast.Expr, key string, op token.Token) bool {
	switch x := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if x.Op == op {
			return isNilCompare(x, key)
		}
		chain := token.LAND
		if op == token.EQL {
			chain = token.LOR
		}
		if x.Op == chain {
			return condHasNilCheck(x.X, key, op) || condHasNilCheck(x.Y, key, op)
		}
	}
	return false
}

func isNilCompare(b *ast.BinaryExpr, key string) bool {
	x, y := types.ExprString(ast.Unparen(b.X)), types.ExprString(ast.Unparen(b.Y))
	return (x == key && y == "nil") || (y == key && x == "nil")
}

// terminates reports whether a block's last statement unconditionally
// leaves the enclosing function or loop iteration.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
