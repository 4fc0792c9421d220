package core

import "fmt"

// Proxy references a chare collection or a single element of one, and is
// used for asynchronous remote method invocation (paper section II-D).
// Proxies are plain values: they may be stored in chare state and passed as
// entry-method arguments to any chare in the job; the runtime re-binds them
// on arrival.
type Proxy struct {
	// CID is the referenced collection.
	CID CID
	// Elem is the referenced element index, or nil for the whole collection
	// (in which case calls broadcast to every member).
	Elem []int

	rt *Runtime
	p  *peState // issuing context, used to create return futures
}

// At returns a proxy to the element with the given index (paper:
// proxy[index]).
func (pr Proxy) At(idx ...int) Proxy {
	pr.Elem = append([]int(nil), idx...)
	return pr
}

// Broadcast returns a proxy referencing the whole collection again.
func (pr Proxy) Broadcast() Proxy {
	pr.Elem = nil
	return pr
}

// Target names an entry method of the referenced chare(s) as a reduction
// target (paper: passing proxy.method as target).
func (pr Proxy) Target(method string) Target {
	return Target{CID: pr.CID, Idx: pr.Elem, Method: method}
}

func (pr Proxy) runtime() *Runtime {
	if pr.rt == nil {
		panic("core: proxy is not bound to a runtime (zero Proxy?)")
	}
	return pr.rt
}

// Call asynchronously invokes an entry method on the referenced element, or
// broadcasts it to the whole collection if the proxy is unindexed. It
// returns immediately (paper section II-D); the caller must give up
// ownership of reference-typed arguments.
func (pr Proxy) Call(method string, args ...any) {
	pr.invoke(method, args, FutureRef{})
}

// CallRet is Call returning a Future for the entry method's return value
// (paper: ret=True). For broadcasts the future completes with a nil value
// once every member has executed the method.
func (pr Proxy) CallRet(method string, args ...any) Future {
	rt := pr.runtime()
	if pr.p == nil {
		panic("core: CallRet requires a locally-issued proxy (obtained from a chare on this node)")
	}
	need := 1
	ack := false
	if pr.Elem == nil {
		meta := rt.collMeta(pr.CID)
		if meta == nil {
			panic("core: CallRet broadcast before collection metadata is known")
		}
		need = collTotal(rt, meta)
		if need < 0 {
			panic("core: CallRet broadcast on sparse array before DoneInserting")
		}
		ack = true
	}
	f := pr.p.newFuture(need, ack)
	pr.invoke(method, args, f.Ref)
	return f
}

func collTotal(rt *Runtime, cm *createMsg) int {
	switch cm.Kind {
	case ckSingle:
		return 1
	case ckGroup:
		return rt.activePEs()
	case ckArray:
		return numElems(cm.Dims)
	default:
		return -1 // sparse: unknown until DoneInserting fixes it per-PE
	}
}

func (pr Proxy) invoke(method string, args []any, fut FutureRef) {
	rt := pr.runtime()
	// m stays on this stack when the destination is on another node: the
	// aggregator serializes it straight into the batch buffer (sendInvoke).
	// Only a same-node delivery or a broadcast needs a Message that outlives
	// the call.
	m := Message{
		Kind:   mInvoke,
		CID:    pr.CID,
		Idx:    pr.Elem,
		MID:    -1,
		Method: method,
		Src:    -1,
		Fut:    fut,
		Args:   args,
	}
	if pr.p != nil {
		m.Src = pr.p.pe
	}
	// meta.ct was resolved once at collection creation; no registry lock on
	// the per-message path. A type with generated bindings attached
	// (Compiled mode) ships the method id and encodes through the typed
	// codecs; any other ships the name, which the receiver resolves by
	// reflection.
	meta := rt.collMeta(pr.CID)
	if meta != nil && meta.ct != nil {
		info, ok := meta.ct.byName[method]
		if !ok {
			panic(fmt.Sprintf("core: chare type %s has no entry method %q", meta.Type, method))
		}
		if g := meta.ct.gen; g != nil {
			m.MID, m.gen = info.id, g
		}
	}
	if pr.Elem == nil {
		hm := m
		rt.bcastAllPEs(&hm)
		return
	}
	pe := rt.admit(rt.destPE(pr.CID, pr.Elem, meta), &m)
	if rt.isLocal(pe) {
		hm := m
		rt.sendLocal(pe, &hm)
		return
	}
	rt.sendInvoke(pe, &m)
}

// destPE picks the best-known PE for an element; meta is its collection's
// metadata if that is known here yet.
func (rt *Runtime) destPE(cid CID, idx []int, meta *createMsg) PE {
	var kb [idxKeyBuf]byte
	key := appendIdxKey(kb[:0], idx)
	if pe, ok := rt.cachedLoc(cid, key); ok {
		return pe
	}
	if meta == nil {
		// Metadata not here yet (proxy arrived before the create broadcast):
		// route via the element's home PE, which will forward.
		return rt.homePE(cid, string(key))
	}
	return rt.initialPE(meta, idx)
}

// Insert dynamically inserts an element into a sparse array (paper:
// ckInsert). The element is created on its home PE; use InsertAt to choose.
func (pr Proxy) Insert(idx []int, args ...any) {
	pr.InsertAt(AnyPE, idx, args...)
}

// InsertAt inserts an element of a sparse array on a specific PE.
func (pr Proxy) InsertAt(onPE PE, idx []int, args ...any) {
	rt := pr.runtime()
	dest := onPE
	if dest == AnyPE {
		dest = rt.homePE(pr.CID, idxKey(idx))
	}
	rt.send(dest, &Message{Kind: mInsert, CID: pr.CID, Src: -1,
		Ctl: &insertMsg{CID: pr.CID, Idx: append([]int(nil), idx...), Args: args, OnPE: dest}})
}

// DoneInserting freezes a sparse array's membership, enabling reductions and
// broadcast futures over it (paper: ckDoneInserting). It must be called by
// the same chare that performed the Inserts, after all of them.
func (pr Proxy) DoneInserting() {
	rt := pr.runtime()
	rt.bcastAllPEs(&Message{Kind: mDoneInserting, CID: pr.CID, Src: -1,
		Ctl: &doneInsertingMsg{CID: pr.CID, Count: -1}})
}
