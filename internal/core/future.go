package core

// Future is a placeholder for a value that will be produced asynchronously
// (paper section II-H3). Futures are created by a chare (CreateFuture) or by
// CallRet, may be sent to other chares as arguments or stored in chare
// state, and are fulfilled with Send. Only code running on the creating PE
// may Get, and only from a threaded entry method; while it blocks, the PE
// keeps scheduling other work.
type Future struct {
	Ref FutureRef

	rt *Runtime
}

// futState is the creator-side slot for a future.
type futState struct {
	need    int
	got     int
	vals    []any
	ready   bool
	ack     bool // broadcast-completion future: Get returns nil
	waiters []*emThread
}

func (p *peState) newFuture(need int, ack bool) Future {
	p.futSeq++
	id := p.futSeq
	p.futures[id] = &futState{need: need, ack: ack}
	return Future{Ref: FutureRef{PE: p.pe, ID: id}, rt: p.rt}
}

// Send fulfills the future with a value. For multi-futures (CreateFuture(n))
// each Send contributes one value. Safe to call from any chare on any node.
func (f Future) Send(v any) {
	if f.rt == nil {
		panic("core: Send on unbound future")
	}
	f.rt.sendFutureSet(nil, f.Ref, v)
}

// sendFutureSet completes ref with v. p is the PE sending, nil when that is
// not known. The Message stays on this stack, as an invoke's does in
// Proxy.invoke: a future-set for another node is serialized straight into
// the batch, one for this node rides an invoke box from p's stock (a new box
// without p).
func (rt *Runtime) sendFutureSet(p *peState, ref FutureRef, v any) {
	m := Message{Kind: mFutureSet, Src: -1, Fut: ref}
	pe := rt.admit(ref.PE, &m)
	if rt.isLocal(pe) {
		rt.sendLocal(pe, p.boxInvoke(&m, []any{v}))
		return
	}
	rt.agg.sendFutureSet(rt.countWire(pe, m.Src), pe, ref, v)
}

// futureSet runs on the owner PE's scheduler when a value arrives.
func (p *peState) futureSet(ref FutureRef, v any) {
	fs := p.futures[ref.ID]
	if fs == nil {
		// Value for an unknown/collected future: drop (e.g. late acks).
		return
	}
	fs.vals = append(fs.vals, v)
	fs.got++
	if fs.got < fs.need {
		return
	}
	if o := p.rt.obs; o != nil {
		o.futureSet(p)
	}
	fs.ready = true
	ws := fs.waiters
	fs.waiters = nil
	for _, th := range ws {
		p.resumeThread(th)
	}
}

// Ready reports whether the future's value has arrived (non-blocking).
func (f Future) Ready() bool {
	p := f.ownerPE()
	fs := p.futures[f.Ref.ID]
	return fs != nil && fs.ready
}

// Get returns the future's value, suspending the calling threaded entry
// method until it is available. For CreateFuture(n) with n > 1 it returns a
// []any of the n values in arrival order; for broadcast-completion futures
// it returns nil (paper: the return value will be None).
func (f Future) Get() any {
	p := f.ownerPE()
	fs := p.futures[f.Ref.ID]
	if fs == nil {
		panic("core: Get on unknown future (already collected?)")
	}
	if !fs.ready {
		th := p.curThread
		if th == nil {
			panic("core: Future.Get requires a threaded entry method (mark it with core.Threaded)")
		}
		fs.waiters = append(fs.waiters, th)
		p.suspendCur()
		// resumed by futureSet once ready
	}
	delete(p.futures, f.Ref.ID)
	if fs.ack {
		return nil
	}
	if fs.need == 1 {
		return fs.vals[0]
	}
	out := make([]any, len(fs.vals))
	copy(out, fs.vals)
	return out
}

func (f Future) ownerPE() *peState {
	if f.rt == nil {
		panic("core: unbound future (zero Future?)")
	}
	if !f.rt.isLocal(f.Ref.PE) {
		panic("core: Future.Get/Ready may only be called on the node that created the future")
	}
	return f.rt.localPE(f.Ref.PE)
}

// Target returns the future as a reduction target.
func (f Future) Target() Target { return Target{Fut: f.Ref, IsFut: true} }
