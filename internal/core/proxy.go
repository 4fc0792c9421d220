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
	// m stays on this stack, and so does the caller's args slice: a
	// same-node delivery copies both into an invoke box, a broadcast into a
	// Message of its own, and the aggregator serializes an invoke for another
	// node straight into the batch buffer (sendInvoke). args goes there
	// beside m, not in it: escape analysis does not tell m's fields apart, and
	// the batch keeps m.Method for its repeat header.
	m := Message{
		Kind:   mInvoke,
		CID:    pr.CID,
		Idx:    pr.Elem,
		MID:    -1,
		Method: method,
		Src:    -1,
		Fut:    fut,
	}
	if pr.p != nil {
		m.Src = pr.p.pe
	}
	// meta.ct was resolved once at collection creation; no registry lock on
	// the per-message path. A type with entry-method handles attached
	// (Compiled mode) ships the method id; any other ships the name, which
	// the receiver resolves by reflection.
	meta := rt.collMeta(pr.CID)
	if meta != nil && meta.ct != nil {
		info, ok := meta.ct.byName[method]
		if !ok {
			panic(fmt.Sprintf("core: chare type %s has no entry method %q", meta.Type, method))
		}
		if meta.ct.typed != nil {
			m.MID = info.id
		}
	}
	if pr.Elem == nil {
		hm := m
		hm.Args = cloneArgs(args)
		rt.bcastAllPEs(&hm)
		return
	}
	pe := rt.admit(rt.destPE(pr.CID, pr.Elem, meta), &m)
	if rt.isLocal(pe) {
		rt.sendLocal(pe, pr.p.boxInvoke(&m, args))
		return
	}
	rt.sendInvoke(pe, &m, args)
}

// cloneArgs copies args for a broadcast, which keeps them, so that the
// caller's own slice can stay on its stack (slices.Clone's growslice is slower).
func cloneArgs(args []any) []any {
	c := make([]any, len(args))
	copy(c, args)
	return c
}

// boxInvoke copies a same-node invoke (m's header and index, and args), or a
// future-set (its ref in m.Fut, its value as args), into an invoke box from
// the stock of p, the PE its proxy is bound to or that sends the value; a new
// box if p is nil or another goroutine holding such a proxy has the stock.
func (p *peState) boxInvoke(m *Message, args []any) *Message {
	var b *Message
	if p != nil && p.boxes.lock.CompareAndSwap(false, true) {
		b = p.boxes.stock.take()
		p.boxes.lock.Store(false)
	} else {
		b = newBox()
	}
	idx, slots := b.Idx, b.Args
	*b = *m
	b.Idx = append(idx[:0], m.Idx...)
	b.Args = append(slots[:0], args...)
	b.boxed = true
	return b
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
