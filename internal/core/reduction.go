package core

import (
	"fmt"
	"sort"
)

// Reductions (paper sections II-F and IV-D): each element contributes once
// per reduction; contributions are combined locally on each PE, per-PE
// partials climb the k-ary spanning tree of nodes (tree.go), and the root
// delivers the result to the target (an entry method or a future).
// Reductions are asynchronous and sequence-numbered, so multiple reductions
// over the same collection can be in flight.
//
// Like Charm++'s spanning-tree reductions, the combine is hierarchical:
// each PE folds its elements' contributions into one partial, each node's
// combiner PE merges the partials of its own PEs with the already-merged
// partials of its child subtrees, and forwards exactly one partial to its
// parent's combiner — so no node (the root included) merges more than
// O(PEs + treeArity) partials per reduction. Contributions are routed by
// each element's *initial* placement node, which every node can compute
// from the collection metadata alone: the per-subtree expected counts stay
// static under migration (a migrated element's host sends its share back to
// the combiner of the element's initial node). Sparse collections keep the
// flat direct-to-root path — membership isn't known until DoneInserting, so
// subtree counts cannot be precomputed; so does a single-node job.

type localRedSlot struct {
	count      int
	reducer    string
	target     Target
	hasTarget  bool
	partial    any
	hasPartial bool
	list       []redElt

	// Tree routing (treeEnabled only): contributions of elements whose
	// initial placement was another node accumulate in per-initial-node
	// sub-slots and are flushed to that node's combiner, keeping subtree
	// expected counts static under migration. foreignN is their total
	// (count - foreignN contributions belong to this node's own subtree
	// slot). Nil/0 in the common no-migration case.
	foreign  map[int]*localRedSlot
	foreignN int
}

type rootRedSlot struct {
	count      int
	reducer    string
	target     Target
	hasTarget  bool
	partial    any
	hasPartial bool
	list       []redElt
}

var builtinReducers = map[string]bool{
	"sum": true, "product": true, "max": true, "min": true,
	"gather": true, "logical_and": true, "logical_or": true,
}

func isListReducer(rt *Runtime, name string) bool {
	if name == "gather" {
		return true
	}
	if name == "" || builtinReducers[name] {
		return false
	}
	return true // custom reducer
}

// contribute records one element's contribution (Chare.Contribute) on the
// element's PE.
func (p *peState) contribute(el *element, data any, reducer Reducer, target Target) {
	coll := el.coll
	el.redNo++
	seq := el.redNo
	slot := coll.localRed[seq]
	if slot == nil {
		slot = &localRedSlot{reducer: reducer.Name}
		coll.localRed[seq] = slot
	}
	if slot.reducer != reducer.Name {
		panic(fmt.Sprintf("core: mismatched reducers in reduction %d of collection %d: %q vs %q",
			seq, el.cid, slot.reducer, reducer.Name))
	}
	if slot.hasTarget {
		if !sameTarget(slot.target, target) {
			panic(fmt.Sprintf("core: mismatched targets in reduction %d of collection %d", seq, el.cid))
		}
	} else {
		slot.target = target
		slot.hasTarget = true
	}
	slot.count++
	// Tree reductions route every contribution to the combiner of the
	// element's initial placement node (static, derivable on any node), so
	// migrated-in elements accumulate in a per-initial-node sub-slot instead
	// of this node's own partial.
	acc := slot
	if p.rt.treeEnabled() && coll.cm.Kind != ckSparse && !p.rt.elastic() {
		if home := p.rt.nodeOf(p.rt.initialPE(coll.cm, el.idx)); home != p.rt.nodeID {
			if slot.foreign == nil {
				slot.foreign = map[int]*localRedSlot{}
			}
			f := slot.foreign[home]
			if f == nil {
				f = &localRedSlot{}
				slot.foreign[home] = f
			}
			f.count++
			slot.foreignN++
			acc = f
		}
	}
	switch {
	case reducer.Name == "":
		// empty reduction: count only
	case isListReducer(p.rt, reducer.Name):
		acc.list = append(acc.list, redElt{Key: el.key, Data: data})
	default:
		if !acc.hasPartial {
			acc.partial = data
			acc.hasPartial = true
		} else {
			acc.partial = combineBuiltin(reducer.Name, acc.partial, data)
		}
	}
	// Dense collections and groups combine locally and send one partial per
	// PE. Sparse collections flush every contribution immediately: elements
	// may still be being inserted (membership is not stable until
	// DoneInserting), so a local count-based batch could stall forever.
	if coll.cm.Kind == ckSparse || slot.count == len(coll.elems) {
		delete(coll.localRed, seq)
		p.flushLocalRed(coll, seq, slot)
	}
}

func sameTarget(a, b Target) bool {
	return a.CID == b.CID && a.Method == b.Method && a.IsFut == b.IsFut &&
		a.Fut == b.Fut && idxEqual(a.Idx, b.Idx)
}

func (p *peState) flushLocalRed(coll *localColl, seq int64, slot *localRedSlot) {
	cid := collCID(coll)
	// This node's own share goes to its combiner (the root PE directly on a
	// single node or for sparse collections); migrated-in elements' shares go
	// back to their initial nodes' combiners, keeping every combiner's
	// expected count static.
	if own := slot.count - slot.foreignN; own > 0 {
		rm := p.redPartial(cid, seq, slot, own, slot)
		p.rt.send(p.redPartialDest(coll), &Message{Kind: mRedPartial, CID: cid, Src: p.pe, Ctl: rm})
	}
	for node, f := range slot.foreign {
		rm := p.redPartial(cid, seq, slot, f.count, f)
		p.rt.send(redCombinerPEOn(p.rt, cid, node), &Message{Kind: mRedPartial, CID: cid, Src: p.pe, Ctl: rm})
	}
}

// redPartial builds the wire partial for one accumulation slot (the PE's
// own share or one per-initial-node foreign sub-slot). Custom reducers are
// applied to the local batch before sending.
func (p *peState) redPartial(cid CID, seq int64, slot *localRedSlot, count int, acc *localRedSlot) *redPartialMsg {
	rm := &redPartialMsg{
		CID: cid, Seq: seq, Count: count,
		Reducer: slot.reducer, Target: slot.target,
	}
	switch {
	case slot.reducer == "":
	case slot.reducer == "gather":
		rm.List = acc.list
	case isListReducer(p.rt, slot.reducer):
		fn := p.rt.reducerFunc(slot.reducer)
		vals := make([]any, len(acc.list))
		for i, e := range acc.list {
			vals[i] = e.Data
		}
		rm.Data = fn(vals)
	default:
		rm.Data = acc.partial
	}
	return rm
}

// redPartialDest returns where this PE's own partial goes: the job root on a
// single node, for sparse collections, or under elastic membership (the tree
// combiners' expected counts are static per-initial-node arithmetic, which
// delegation invalidates — elastic reductions combine flat at the root),
// this node's tree combiner otherwise.
func (p *peState) redPartialDest(coll *localColl) PE {
	cid := collCID(coll)
	if !p.rt.treeEnabled() || coll.cm.Kind == ckSparse || p.rt.elastic() {
		return rootPE(p.rt, cid)
	}
	return redCombinerPEOn(p.rt, cid, p.rt.nodeID)
}

// redCombinerPEOn returns the PE that merges reduction partials on a node.
// On the node hosting the job-level root it is the root itself; elsewhere a
// per-collection hash spreads combiner duty across the node's PEs.
func redCombinerPEOn(rt *Runtime, cid CID, node int) PE {
	root := rootPE(rt, cid)
	if rt.nodeOf(root) == node {
		return root
	}
	return PE(node*rt.cfg.PEs + int(idxHash([]int{int(cid)})%uint64(rt.cfg.PEs)))
}

// redRootNode returns the node hosting a collection's job-level reduction
// root; reduction partials climb the spanning tree rooted there.
func (rt *Runtime) redRootNode(cid CID) int { return rt.nodeOf(rootPE(rt, cid)) }

func collCID(coll *localColl) CID { return coll.cm.CID }

func (rt *Runtime) reducerFunc(name string) ReducerFunc {
	rt.mu.Lock()
	fn := rt.reducers[name]
	rt.mu.Unlock()
	if fn == nil {
		panic(fmt.Sprintf("core: reducer %q not registered on node %d", name, rt.nodeID))
	}
	return fn
}

// redRootRecv runs on the root PE when a per-PE partial arrives.
func (p *peState) redRootRecv(m *Message) {
	coll := p.colls[m.CID]
	if coll == nil {
		p.pendingColl[m.CID] = append(p.pendingColl[m.CID], m)
		return
	}
	rm := m.Ctl.(*redPartialMsg)
	slot := coll.rootRed[rm.Seq]
	if slot == nil {
		slot = &rootRedSlot{reducer: rm.Reducer}
		coll.rootRed[rm.Seq] = slot
	}
	p.mergePartial(slot, rm)
	p.redCheckComplete(coll, rm.Seq, slot)
}

// mergePartial folds one arriving partial into an accumulation slot; shared
// by the job-level root and the per-node tree combiners.
func (p *peState) mergePartial(slot *rootRedSlot, rm *redPartialMsg) {
	if slot.reducer != rm.Reducer {
		panic(fmt.Sprintf("core: mismatched reducers at reduction combine (%q vs %q)", slot.reducer, rm.Reducer))
	}
	if !slot.hasTarget {
		slot.target = rm.Target
		slot.hasTarget = true
	}
	slot.count += rm.Count
	switch {
	case rm.Reducer == "":
	case rm.Reducer == "gather":
		slot.list = append(slot.list, rm.List...)
	case isListReducer(p.rt, rm.Reducer):
		slot.list = append(slot.list, redElt{Data: rm.Data})
	default:
		if !slot.hasPartial {
			slot.partial = rm.Data
			slot.hasPartial = true
		} else {
			slot.partial = combineBuiltin(rm.Reducer, slot.partial, rm.Data)
		}
	}
}

// redCombinerRecv runs on a node's tree-combiner PE: it merges the partials
// of this node's own PEs (plus shares routed back for elements initially
// placed here that have since migrated away) with the merged partials of
// this node's child subtrees, and forwards exactly one partial to the
// parent node's combiner once the whole subtree has reported.
func (p *peState) redCombinerRecv(m *Message) {
	coll := p.colls[m.CID]
	if coll == nil {
		p.pendingColl[m.CID] = append(p.pendingColl[m.CID], m)
		return
	}
	rm := m.Ctl.(*redPartialMsg)
	if o := p.rt.obs; o != nil {
		o.partial()
	}
	slot := coll.nodeRed[rm.Seq]
	if slot == nil {
		slot = &rootRedSlot{reducer: rm.Reducer}
		coll.nodeRed[rm.Seq] = slot
	}
	p.mergePartial(slot, rm)
	expect := p.redTreeExpect(coll)
	if slot.count < expect {
		return
	}
	if slot.count > expect {
		panic(fmt.Sprintf("core: reduction %d of collection %d: node %d combiner received %d contributions for a subtree of %d",
			rm.Seq, m.CID, p.rt.nodeID, slot.count, expect))
	}
	delete(coll.nodeRed, rm.Seq)
	rt := p.rt
	parent := treeParent(rt.nodeID, rt.redRootNode(m.CID), rt.numNodes, treeArity)
	if o := rt.obs; o != nil {
		o.hops([]int{parent}, slot.count)
	}
	out := p.redPartial(m.CID, rm.Seq, &localRedSlot{
		reducer: slot.reducer, target: slot.target,
	}, slot.count, &localRedSlot{
		partial: slot.partial, hasPartial: slot.hasPartial, list: slot.list,
	})
	rt.send(redCombinerPEOn(rt, m.CID, parent), &Message{Kind: mRedPartial, CID: m.CID, Src: p.pe, Ctl: out})
}

// redTreeExpect returns (and caches) how many element contributions this
// node's combiner must merge before forwarding: the elements initially
// placed on any node of this node's subtree in the reduction tree.
func (p *peState) redTreeExpect(coll *localColl) int {
	if !coll.treeExpectOK {
		rt := p.rt
		root := rt.redRootNode(collCID(coll))
		n := 0
		stack := []int{rt.nodeID}
		var cbuf [8]int
		for len(stack) > 0 {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n += rt.initialElemsOnNode(coll.cm, nd)
			stack = append(stack, appendTreeChildren(cbuf[:0], nd, root, rt.numNodes, treeArity)...)
		}
		coll.treeExpect = n
		coll.treeExpectOK = true
	}
	return coll.treeExpect
}

// initialElemsOnNode counts the elements of a dense collection initially
// placed on a node. It is pure arithmetic over the collection metadata, so
// every node computes identical values — the property that lets tree
// combiners know their subtree totals without any membership exchange.
func (rt *Runtime) initialElemsOnNode(cm *createMsg, node int) int {
	switch cm.Kind {
	case ckSingle:
		if rt.nodeOf(rt.initialPE(cm, []int{0})) == node {
			return 1
		}
		return 0
	case ckGroup:
		return rt.cfg.PEs
	case ckArray:
		n := 0
		total := numElems(cm.Dims)
		for pos := 0; pos < total; pos++ {
			if rt.nodeOf(rt.initialPE(cm, delinearize(pos, cm.Dims))) == node {
				n++
			}
		}
		return n
	}
	panic(fmt.Sprintf("core: no static initial placement for collection kind %d", cm.Kind))
}

func (p *peState) redCheckComplete(coll *localColl, seq int64, slot *rootRedSlot) {
	if coll.total < 0 || slot.count < coll.total {
		return // sparse array pre-DoneInserting, or contributions outstanding
	}
	if slot.count > coll.total {
		panic(fmt.Sprintf("core: reduction %d of collection %d received %d contributions for %d elements",
			seq, collCID(coll), slot.count, coll.total))
	}
	delete(coll.rootRed, seq)
	if o := p.rt.obs; o != nil {
		o.reduction(p, slot.count)
	}
	var result any
	switch {
	case slot.reducer == "":
		result = nil
	case slot.reducer == "gather":
		sort.Slice(slot.list, func(i, j int) bool {
			return idxLess(keyIdx(slot.list[i].Key), keyIdx(slot.list[j].Key))
		})
		vals := make([]any, len(slot.list))
		for i, e := range slot.list {
			vals[i] = e.Data
		}
		result = vals
	case isListReducer(p.rt, slot.reducer):
		fn := p.rt.reducerFunc(slot.reducer)
		vals := make([]any, len(slot.list))
		for i, e := range slot.list {
			vals[i] = e.Data
		}
		result = fn(vals)
	default:
		result = slot.partial
	}
	p.deliverRedResult(slot.target, result)
}

func (p *peState) deliverRedResult(t Target, result any) {
	if t.IsFut {
		p.rt.sendFutureSet(t.Fut, result)
		return
	}
	m := &Message{
		Kind: mInvoke, CID: t.CID, Idx: t.Idx, MID: -1, Method: t.Method,
		Src: p.pe, Args: []any{result},
	}
	if t.Idx == nil {
		p.rt.bcastAllPEs(m)
		return
	}
	p.rt.send(p.rt.destPE(t.CID, t.Idx, p.rt.collMeta(t.CID)), m)
}

func idxLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ---- built-in reducer combination ----

func combineBuiltin(name string, a, b any) any {
	switch name {
	case "sum":
		return numericOp(a, b, opSum)
	case "product":
		return numericOp(a, b, opProd)
	case "max":
		return numericOp(a, b, opMax)
	case "min":
		return numericOp(a, b, opMin)
	case "logical_and":
		return truthyOf(a) && truthyOf(b)
	case "logical_or":
		return truthyOf(a) || truthyOf(b)
	}
	panic(fmt.Sprintf("core: unknown built-in reducer %q", name))
}

func truthyOf(v any) bool {
	switch x := v.(type) {
	case bool:
		return x
	case int:
		return x != 0
	case int64:
		return x != 0
	case float64:
		return x != 0
	case nil:
		return false
	}
	return true
}

type scalarOp int

const (
	opSum scalarOp = iota
	opProd
	opMax
	opMin
)

func numericOp(a, b any, op scalarOp) any {
	switch x := a.(type) {
	case int:
		return int(intOp(int64(x), toI64(b), op))
	case int64:
		return intOp(x, toI64(b), op)
	case float64:
		return floatOp(x, toF64(b), op)
	case []float64:
		y, ok := b.([]float64)
		if !ok || len(x) != len(y) {
			panic(fmt.Sprintf("core: reduction shape mismatch: %T(%d) vs %T", a, len(x), b))
		}
		out := make([]float64, len(x))
		for i := range x {
			out[i] = floatOp(x[i], y[i], op)
		}
		return out
	case []int64:
		y, ok := b.([]int64)
		if !ok || len(x) != len(y) {
			panic(fmt.Sprintf("core: reduction shape mismatch: %T vs %T", a, b))
		}
		out := make([]int64, len(x))
		for i := range x {
			out[i] = intOp(x[i], y[i], op)
		}
		return out
	case []int:
		y, ok := b.([]int)
		if !ok || len(x) != len(y) {
			panic(fmt.Sprintf("core: reduction shape mismatch: %T vs %T", a, b))
		}
		out := make([]int, len(x))
		for i := range x {
			out[i] = int(intOp(int64(x[i]), int64(y[i]), op))
		}
		return out
	}
	panic(fmt.Sprintf("core: unsupported reduction data type %T", a))
}

func toI64(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	case float64:
		return int64(x)
	}
	panic(fmt.Sprintf("core: reduction type mismatch: expected integer, got %T", v))
}

func toF64(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("core: reduction type mismatch: expected float, got %T", v))
}

func intOp(a, b int64, op scalarOp) int64 {
	switch op {
	case opSum:
		return a + b
	case opProd:
		return a * b
	case opMax:
		if a > b {
			return a
		}
		return b
	default:
		if a < b {
			return a
		}
		return b
	}
}

func floatOp(a, b float64, op scalarOp) float64 {
	switch op {
	case opSum:
		return a + b
	case opProd:
		return a * b
	case opMax:
		if a > b {
			return a
		}
		return b
	default:
		if a < b {
			return a
		}
		return b
	}
}
