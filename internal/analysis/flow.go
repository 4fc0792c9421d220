package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flow.go is the shared forward-dataflow engine the CFG-based rules
// (sendown, aliasescape, charerace) run on. The lattice is a per-variable
// fact map: each flagged *types.Object carries a small fact value (taint
// source position, ownership-transfer site, deferred-transfer bit). Merge is
// union keeping the earliest fact, which makes the fixpoint monotone and the
// reported positions deterministic.

// Fact is one variable's dataflow fact.
type Fact struct {
	Pos      token.Pos // where the fact was introduced (source/transfer site)
	Deferred bool      // ownership transfer is scheduled (defer), not done yet
}

// State maps flagged variables to their facts at one program point.
type State map[types.Object]Fact

func (s State) clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge unions o into s, keeping the earliest-introduced fact on conflict,
// and reports whether s changed.
func (s State) merge(o State) bool {
	changed := false
	for k, v := range o {
		cur, ok := s[k]
		if !ok || v.Pos < cur.Pos || (v.Pos == cur.Pos && cur.Deferred && !v.Deferred) {
			if !ok || cur != v {
				s[k] = v
				changed = true
			}
		}
	}
	return changed
}

// Transfer mutates state through one CFG node. When report is true the pass
// is the post-fixpoint replay and the transfer function should emit
// diagnostics; fixpoint iterations run with report=false.
type Transfer func(n ast.Node, state State, report bool)

// Forward runs transfer to fixpoint over cfg starting from entry facts, then
// replays every reachable block once with report=true. Blocks unreachable
// from the entry are replayed with an empty state so their syntax is still
// visited (e.g. code after panic).
func Forward(cfg *CFG, entry State, transfer Transfer) {
	if len(cfg.Blocks) == 0 {
		return
	}
	in := make([]State, len(cfg.Blocks))
	in[0] = entry.clone()
	work := []*Block{cfg.Blocks[0]}
	seen := map[*Block]bool{cfg.Blocks[0]: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		seen[blk] = false
		st := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			transfer(n, st, false)
		}
		for _, succ := range blk.Succs {
			if in[succ.Index] == nil {
				in[succ.Index] = st.clone()
			} else if !in[succ.Index].merge(st) {
				continue
			}
			if !seen[succ] {
				seen[succ] = true
				work = append(work, succ)
			}
		}
	}
	// Replay in block order for deterministic diagnostics.
	for _, blk := range cfg.Blocks {
		st := in[blk.Index]
		if st == nil {
			st = State{}
		} else {
			st = st.clone()
		}
		for _, n := range blk.Nodes {
			transfer(n, st, true)
		}
	}
}

// ---- shared syntactic helpers for transfer functions ----

// eachUse calls fn for every identifier use inside n that resolves to an
// object, skipping function-literal bodies (their execution time is unknown
// to the enclosing flow) and, for *ast.RangeStmt nodes appearing as CFG
// loop heads, the loop body.
func eachUse(info *types.Info, n ast.Node, fn func(id *ast.Ident, obj types.Object)) {
	if n == nil {
		return
	}
	if rng, ok := n.(*ast.RangeStmt); ok {
		eachUse(info, rng.X, fn)
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				fn(x, obj)
			}
		}
		return true
	})
}

// assignTargets returns the plain-identifier objects (re)bound by n: the LHS
// of assignments and var declarations, and range key/value variables. Other
// LHS shapes (buf[0], s.field) are not rebindings.
func assignTargets(info *types.Info, n ast.Node) []types.Object {
	var out []types.Object
	add := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			out = append(out, obj)
		} else if obj := info.Uses[id]; obj != nil {
			out = append(out, obj)
		}
	}
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			add(lhs)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						add(name)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if x.Key != nil {
			add(x.Key)
		}
		if x.Value != nil {
			add(x.Value)
		}
	}
	return out
}

// eachCall calls fn for every call expression inside n, skipping
// function-literal bodies and range-statement loop bodies.
func eachCall(info *types.Info, n ast.Node, fn func(call *ast.CallExpr)) {
	if n == nil {
		return
	}
	if rng, ok := n.(*ast.RangeStmt); ok {
		eachCall(info, rng.X, fn)
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}
