package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NoBlock checks that entry methods never block their PE's scheduler. A PE
// executes one entry method at a time on a single goroutine (paper §II);
// a time.Sleep, a bare channel receive, a mutex acquisition or a
// WaitGroup.Wait inside an entry method stalls every chare hosted on that
// PE — and, because collectives route through specific PEs, frequently the
// whole job. The sanctioned suspension paths are the runtime's own
// primitives (Future.Get, Chare.Wait, core.Channel.Recv from threaded entry
// methods), which yield the PE token back to the scheduler while parked.
//
// Code inside `go func(){...}` literals is exempt: a spawned goroutine does
// not hold the PE token. Unexported helper methods are not traced
// interprocedurally; the check covers the entry-method bodies themselves.
var NoBlock = &Analyzer{
	Name: "noblock",
	ID:   "CV003",
	Doc: "entry methods must not block the PE scheduler: no time.Sleep, bare channel " +
		"operations, mutex locks, or WaitGroup waits; suspend via futures/channels instead",
	Run: runNoBlock,
}

func runNoBlock(pass *Pass) {
	for _, em := range pass.EntryMethods {
		if em.decl.Body == nil {
			continue
		}
		name := fmt.Sprintf("%s.%s", em.chare.Obj().Name(), em.fn.Name())
		checkNoBlock(pass, em.decl.Body, name)
	}
}

func checkNoBlock(pass *Pass, body ast.Node, em string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			// A goroutine does not hold the PE token; skip its body but keep
			// checking the call's arguments.
			for _, arg := range x.Call.Args {
				checkNoBlock(pass, arg, em)
			}
			return false
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				pass.Reportf(x.Pos(),
					"entry method %s receives from a raw channel: this parks the PE scheduler and every chare on it; use a Future or core.Channel (threaded entry method) instead", em)
			}
		case *ast.SendStmt:
			if isChanType(pass.Info.TypeOf(x.Chan)) {
				pass.Reportf(x.Pos(),
					"entry method %s sends on a raw channel: an unbuffered or full channel parks the PE scheduler; deliver results via proxy calls or futures instead", em)
			}
		case *ast.RangeStmt:
			if isChanType(pass.Info.TypeOf(x.X)) {
				pass.Reportf(x.Pos(),
					"entry method %s ranges over a channel: this parks the PE scheduler until the channel closes; drain it from a spawned goroutine or use core.Channel", em)
			}
		case *ast.SelectStmt:
			pass.Reportf(x.Pos(),
				"entry method %s uses select: channel operations park the PE scheduler; use futures/core.Channel, or move the select into a goroutine", em)
			return false
		case *ast.CallExpr:
			obj := calleeObject(pass.Info, x)
			if obj == nil {
				return true
			}
			switch {
			case isFunc(obj, "time", "Sleep"):
				pass.Reportf(x.Pos(),
					"entry method %s calls time.Sleep: the PE scheduler is stalled for the full duration; schedule a follow-up message or use a threaded entry method with a future", em)
			case isMethodOf(obj, "sync", "Mutex") && obj.Name() == "Lock",
				isMethodOf(obj, "sync", "RWMutex") && (obj.Name() == "Lock" || obj.Name() == "RLock"):
				pass.Reportf(x.Pos(),
					"entry method %s acquires a sync lock: chare state is PE-confined by construction, and a contended lock stalls the scheduler; remove the lock or confine the shared state to one chare", em)
			case isMethodOf(obj, "sync", "WaitGroup") && obj.Name() == "Wait":
				pass.Reportf(x.Pos(),
					"entry method %s calls WaitGroup.Wait: the PE scheduler is parked until the group drains; collect completions with a Future (CreateFuture(n)) or a reduction instead", em)
			}
		}
		return true
	})
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
