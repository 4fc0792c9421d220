package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"charmgo/internal/expr"
	"charmgo/internal/ser"
)

// peState is one processing element: a scheduler goroutine, its mailbox, and
// the chares it currently hosts. All fields except the mailbox are owned by
// the scheduler (or by the single entry-method thread currently holding the
// PE token), so no further locking is needed.
type peState struct {
	rt   *Runtime
	pe   PE
	mbox *mailbox

	colls       map[CID]*localColl
	pendingColl map[CID][]*Message // messages for collections not yet created here

	futures map[int64]*futState
	futSeq  int64
	cidSeq  int32

	lastEl  *element              // the last element a message was routed to (elemFor)
	tomb    map[CID]map[string]PE // forwarding pointers for emigrated elements
	homeLoc map[CID]map[string]PE // authoritative locations for elements homed here

	yieldCh   chan thYield
	curThread *emThread
	suspended map[*emThread]bool

	insRoot map[CID]insCount // sparse-array DoneInserting counts in progress here

	ftG map[int64]*ftGatherState // in-flight ft checkpoint gathers (node-first PE)

	// The PE clock: stamp is the time, since rt.t0, at which the last entry
	// method (or threaded segment) on this PE ended, which is when the next
	// one is taken to start — so a dispatched message costs one clock read,
	// at its end, and the dequeue and routing in between count toward the
	// method they lead to. A scheduler that parked re-reads it on waking.
	// Element loads, the sampler and the tracer's EM spans all use these
	// stamps. now is time.Since(rt.t0) unless a test counts the reads.
	now   func() time.Duration
	stamp time.Duration

	// cur is the message dispatch is handling; curSpent is set when cur was
	// a boxed invoke that ran inline with its Args unpacked into typed
	// parameters, which is the one case in which dispatch returns its box
	// (wire.go). A run's spent boxes go back with the run; spent collects
	// those of messages that arrived alone, and those recheck returns, a
	// chunk at a time.
	cur      *Message
	curSpent bool
	spent    *msgRun

	// cnt is this PE's line of message counters (quiescence.go).
	cnt *peCounts

	// stats are the cumulative counters the observer keeps for the sampler
	// and the per-PE metrics (observe.go).
	stats peStats

	exiting bool
	// boxes is where a same-node invoke issued through a proxy bound to this
	// PE takes its box (Proxy.invoke).
	boxes sendBoxes
}

// localColl is one PE's slice of a chare collection.
type localColl struct {
	cm          *createMsg
	ct          *chareType
	elems       map[string]*element
	total       int // global element count; -1 for sparse pre-DoneInserting
	localRed    map[int64]*localRedSlot
	rootRed     map[int64]*rootRedSlot
	nodeRed     map[int64]*rootRedSlot // tree combiner accumulation (reduction.go)
	pendingElem map[string][]*Message  // sparse: messages before insertion
	insCount    int                    // local insert count (sparse)
	lbStatsSent bool
	lb          lbRootState // on the collection's root PE only

	// treeExpect caches the number of contributions this node's reduction
	// combiner must merge before forwarding up the tree: the elements
	// initially placed on any node of this node's subtree (static under
	// migration — contributions route by initial placement).
	treeExpect   int
	treeExpectOK bool
}

// element is one chare instance hosted on this PE, owned by its scheduler:
// only the PE touches it, or the threaded entry method the PE has handed
// itself to, and the waitYield channel handoff orders those accesses.
type element struct {
	obj         reflect.Value // pointer to the user struct
	iface       any
	base        *Chare
	idx         []int
	key         string
	cid         CID
	coll        *localColl
	buf         []*Message // when-buffered messages
	waiters     []*waiter
	chans       map[string]*chanStream // channel receive streams
	redNo       int64
	load        time.Duration // cumulative entry-method wall time
	atSync      bool
	migrateTo   PE // requested destination PE; -1 when none
	lbMove      bool
	liveThreads int
	inRecheck   bool
	dead        bool
}

type waiter struct {
	cond  string
	ready expr.Guard
	th    *emThread
}

// emThread is a threaded entry method execution (paper section II-H1).
type emThread struct {
	resume   chan struct{}
	el       *element
	segStart time.Duration // PE clock (peState.stamp) at which the running segment began
}

type thYield struct {
	th       *emThread
	done     bool
	panicVal any
}

// lpe returns the node-local index of this PE (trace attribution).
func (p *peState) lpe() int { return int(p.pe - p.rt.basePE) }

func newPEState(rt *Runtime, pe PE) *peState {
	return &peState{
		rt:          rt,
		pe:          pe,
		colls:       map[CID]*localColl{},
		pendingColl: map[CID][]*Message{},
		futures:     map[int64]*futState{},
		tomb:        map[CID]map[string]PE{},
		homeLoc:     map[CID]map[string]PE{},
		yieldCh:     make(chan thYield),
		suspended:   map[*emThread]bool{},
		insRoot:     map[CID]insCount{},
		now:         func() time.Duration { return time.Since(rt.t0) },
		cnt:         &rt.cnt[pe-rt.basePE],
		mbox:        newMailbox(),
		boxes:       sendBoxes{stock: boxStock{list: &rt.boxes}},
	}
}

// loop is the PE scheduler: Charm++-style message-driven execution, one
// entry method at a time.
func (p *peState) loop() {
	p.stamp = p.now()
	for !p.exiting {
		m, ok := p.mbox.tryPop()
		if !ok {
			// Idle hook: before blocking, push out any aggregation batches this
			// (or any) PE has pending. Count ourselves parked first: a sender
			// that appends after this flush must see nobody left to do it
			// (aggregator.go).
			p.rt.nIdle.Add(1)
			if p.rt.agg != nil {
				p.rt.agg.flushAll(flushIdle)
			}
			if o := p.rt.obs; o != nil {
				m, ok = o.park(p)
			} else {
				m, ok = p.mbox.pop()
			}
			p.rt.nIdle.Add(-1)
			p.stamp = p.now() // time parked is nobody's load
		}
		if !ok {
			break
		}
		p.dispatch(m)
	}
	p.shutdownThreads()
}

// dispatch handles one dequeued mailbox item: a message, or a run of them.
// A message is counted done when its handler has returned (quiescence.go).
func (p *peState) dispatch(m *Message) {
	if m.Kind == mRun {
		p.dispatchRun(m.Ctl.(*msgRun))
		return
	}
	spent := p.deliver(m)
	qdDone(p.cnt, m.Kind)
	if spent {
		p.returnBox(m)
	}
}

// dispatchRun handles a run's messages in frame order, so per-sender FIFO
// holds across it, and stops at the next message once the job is exiting
// (localExit raises rt.exited before it pushes mExit to the front). The
// mailbox counted the whole run out at the pop; cnt.runLeft is what of it is
// still to be handled, so depth stays a count of messages. The boxes spent
// move to the front of r.ms and go back with the run as one chunk: a message
// somebody kept is simply not among them.
func (p *peState) dispatchRun(r *msgRun) {
	ms := r.ms
	spent, done := 0, int64(0)
	for i, m := range ms {
		if p.rt.exited.Load() {
			break
		}
		p.cnt.runLeft.Store(int64(len(ms) - i - 1))
		if countableKind(m.Kind) {
			done++
		}
		if p.deliver(m) {
			resetBox(m, p.rt.poisonBoxes)
			ms[spent] = m
			spent++
		}
	}
	p.cnt.runLeft.Store(0)
	p.cnt.done.Add(done)
	clear(ms[spent:])
	r.ms = ms[:spent]
	p.rt.boxes.put(r)
}

// deliver accounts for and handles one message, and reports whether its box
// is spent: dispatch and dispatchRun take back the box of the message they
// dequeued, recheck that of a when-buffered one (wire.go has the ownership
// rule).
func (p *peState) deliver(m *Message) (spent bool) {
	if o := p.rt.obs; o != nil {
		o.recv(p, m)
	}
	p.cur, p.curSpent = m, false
	p.handle(m)
	// Zero-copy broadcast fan-out: the same *Message was queued to every
	// local PE; the last one to finish handling it releases the shared
	// payload (e.g. the pooled reassembly buffer of a fragmented
	// broadcast).
	if sh := m.shared; sh != nil && sh.refs.Add(-1) == 0 && sh.release != nil {
		sh.release()
	}
	p.cur = nil
	return p.curSpent
}

// returnBox takes back the box of a message that arrived outside a run, or
// that recheck ran from a when-buffer.
func (p *peState) returnBox(m *Message) {
	resetBox(m, p.rt.poisonBoxes)
	if p.spent == nil {
		p.spent = p.rt.boxes.get(false)
	}
	p.spent.ms = append(p.spent.ms, m)
	if len(p.spent.ms) >= boxChunk {
		p.rt.boxes.put(p.spent)
		p.spent = nil
	}
}

// depth is the number of messages waiting for this PE.
func (p *peState) depth() int { return p.mbox.len() + int(p.cnt.runLeft.Load()) }

// shutdownThreads terminates suspended threads cleanly (their resume
// channels are closed; they call runtime.Goexit).
func (p *peState) shutdownThreads() {
	for th := range p.suspended {
		close(th.resume)
	}
}

func (p *peState) handle(m *Message) {
	switch m.Kind {
	case mExit:
		p.exiting = true
		p.mbox.close()
	case mStartMain:
		p.startMain()
	case mCreate:
		p.createColl(m.Ctl.(*createMsg))
	case mInvoke:
		p.routeInvoke(m)
	case mInsert:
		p.insertElem(m.Ctl.(*insertMsg))
	case mDoneInserting:
		p.handleDoneInserting(m.Ctl.(*doneInsertingMsg))
	case mFutureSet, mElasticAck:
		if v := m.Args[0]; m.Fut.ID < 0 {
			// Negative ids are external (channel-awaited) futures; elastic.go.
			p.rt.extComplete(m.Fut.ID, v)
		} else {
			p.futureSet(m.Fut, v)
		}
		if m.boxed && m == p.cur {
			p.curSpent = true // the value is taken: nothing reads the box again
		}
	case mRedPartial:
		// The reduction root accumulates job-level results; every other PE
		// that receives partials is its node's tree combiner (reduction.go).
		if p.pe == rootPE(p.rt, m.CID) {
			p.redRootRecv(m)
		} else {
			p.redCombinerRecv(m)
		}
	case mMigrate:
		p.migrateIn(m.Ctl.(*migrateMsg))
	case mLocUpdate:
		lu := m.Ctl.(*locUpdateMsg)
		key := idxKey(lu.Idx)
		if home := p.rt.homePE(lu.CID, key); home != p.pe && p.rt.elastic() {
			// A view change moved this element's home while the update was in
			// flight; pass it along to the current home.
			p.rt.send(home, m)
			break
		}
		p.setHomeLoc(lu.CID, key, lu.At)
		p.rt.cacheLoc(lu.CID, key, lu.At)
	case mLBStats:
		p.lbRootStats(m)
	case mLBMoves:
		p.lbApplyMoves(m)
	case mLBAck:
		p.lbRootAck(m.CID)
	case mLBResume:
		p.lbResume(m.CID)
	case mLBPoll:
		p.lbPoll(m)
	case mQDStart:
		p.qdStart(m.Ctl.(*qdStartMsg).Target)
	case mQDProbe:
		p.qdOnProbe(m.Ctl.(*qdProbeMsg))
	case mQDReply:
		p.qdOnReply(m.Ctl.(*qdReplyMsg))
	case mCkptCollect:
		p.ckptCollect(m.Ctl.(*ckptCollectMsg))
	case mFTCollect:
		fm := m.Ctl.(*ftCollectMsg)
		p.rt.send(p.rt.basePE, &Message{Kind: mFTBundle, Src: p.pe,
			Ctl: &ftBundleMsg{Epoch: fm.Epoch, Fut: fm.Fut, Bundle: p.collectBundle()}})
	case mFTBundle:
		p.ftBundle(m.Ctl.(*ftBundleMsg))
	case mFTBlob:
		p.ftBlob(m.Ctl.(*ftBlobMsg))
	case mFTRestore:
		p.ftRestore(m.Ctl.(*ftRestoreMsg))
	case mFTInject:
		p.ftInject(m.Ctl.(*ftInjectMsg))
	case mFTSeq:
		if sm := m.Ctl.(*ftSeqMsg); sm.Seq > p.cidSeq {
			p.cidSeq = sm.Seq
		}
	case mIntroSample:
		p.introSample(m.Ctl.(*introSampleMsg).Seq)
	case mPing:
		p.rt.sendFutureSet(p, m.Fut, nil)
	case mElasticCtl:
		p.elasticCtl(m.Ctl.(*elasticCtlMsg))
	case mElasticState:
		p.elasticInstall(m.Ctl.(*elasticStateMsg))
	case mElasticView:
		vm := m.Ctl.(*elasticViewMsg)
		p.rt.applyView(vm.Epoch, vm.Active, vm.Ack)
	case mElasticCensus:
		p.elasticCensus(m.Ctl.(*elasticCensusMsg))
	case mElasticRehome:
		p.elasticRehome(m.Ctl.(*elasticRehomeMsg).Ack)
	case mElasticBye:
		// Normally intercepted at ingress; local/mem delivery lands here.
		p.rt.byeFrom(m.Ctl.(*elasticByeMsg).From)
	case mChanMsg:
		if el, done := p.routeElem(m); !done {
			cm := m.Ctl.(*chanMsg)
			if needsRebind(cm.Val) {
				cm.Val = rebindPure(cm.Val, p.rt, p, 0)
			}
			p.chanDeliver(el, cm)
		}
	default:
		panic(fmt.Sprintf("core: PE %d: unknown message kind %d", p.pe, m.Kind))
	}
}

// mainCID is the reserved collection id of the main chare.
const mainCID CID = 0

func (p *peState) startMain() {
	cm := &createMsg{CID: mainCID, Kind: ckSingle, Type: "mainChare", OnPE: 0, Creator: 0}
	p.rt.putCollMeta(cm) // resolves cm.ct before the PEs share cm
	p.rt.bcastAllPEs(&Message{Kind: mCreate, Src: p.pe, Ctl: cm})
	p.rt.send(p.pe, &Message{Kind: mInvoke, CID: mainCID, Idx: []int{0}, MID: -1, Method: "Run", Src: p.pe})
}

// ---- collection creation ----

func (p *peState) createColl(cm *createMsg) {
	if _, exists := p.colls[cm.CID]; exists {
		return // idempotent (self-broadcast)
	}
	rt := p.rt
	rt.mu.Lock()
	ct := rt.types[cm.Type]
	rt.mu.Unlock()
	if ct == nil {
		panic(fmt.Sprintf("core: create of unregistered chare type %q", cm.Type))
	}
	rt.putCollMeta(cm)
	coll := &localColl{
		cm:          cm,
		ct:          ct,
		elems:       map[string]*element{},
		localRed:    map[int64]*localRedSlot{},
		rootRed:     map[int64]*rootRedSlot{},
		nodeRed:     map[int64]*rootRedSlot{},
		pendingElem: map[string][]*Message{},
	}
	switch cm.Kind {
	case ckSingle:
		coll.total = 1
		if !cm.NoInit && rt.initialPE(cm, []int{0}) == p.pe {
			p.newElement(coll, cm.CID, []int{0}, cm.Args)
		}
	case ckGroup:
		coll.total = rt.activePEs()
		p.colls[cm.CID] = coll // install before ctor so ctor can message it
		if !cm.NoInit {
			p.newElement(coll, cm.CID, []int{int(p.pe)}, cm.Args)
		}
	case ckArray:
		coll.total = numElems(cm.Dims)
		p.colls[cm.CID] = coll
		if !cm.NoInit {
			n := coll.total
			for pos := 0; pos < n; pos++ {
				idx := delinearize(pos, cm.Dims)
				if rt.initialPE(cm, idx) == p.pe {
					el := p.newElement(coll, cm.CID, idx, cm.Args)
					if rt.elastic() {
						// Under elastic membership the initial placement is a
						// function of the view and later views re-derive it
						// differently, so routing cannot fall back to it:
						// announce every element to its home at birth.
						if home := rt.homePE(cm.CID, el.key); home == p.pe {
							p.setHomeLoc(cm.CID, el.key, p.pe)
						} else {
							rt.send(home, &Message{Kind: mLocUpdate, Src: p.pe,
								Ctl: &locUpdateMsg{CID: cm.CID, Idx: el.idx, At: p.pe}})
						}
					}
				}
			}
		}
	case ckSparse:
		coll.total = -1
	}
	p.colls[cm.CID] = coll
	// Replay messages that arrived before creation.
	if pend := p.pendingColl[cm.CID]; len(pend) > 0 {
		delete(p.pendingColl, cm.CID)
		for _, m := range pend {
			p.handle(m)
		}
	}
}

// newElement instantiates a chare and runs its constructor (the Init entry
// method, if defined) with args.
func (p *peState) newElement(coll *localColl, cid CID, idx []int, args []any) *element {
	objv := reflect.New(coll.ct.rtype)
	el := &element{
		obj:   objv,
		iface: objv.Interface(),
		idx:   append([]int(nil), idx...),
		key:   idxKey(idx),
		cid:   cid,
		coll:  coll,

		migrateTo: -1,
	}
	base := el.iface.(Chareable).chareBase()
	base.ThisIndex = el.idx
	base.ec = &elemCtx{p: p, el: el, coll: coll}
	el.base = base
	coll.elems[el.key] = el
	if info, ok := coll.ct.byName["Init"]; ok {
		p.invokeEMInner(el, info, &Message{Kind: mInvoke, CID: cid, Idx: idx, MID: info.id, Method: "Init", Args: args, Src: p.pe})
		p.recheck(el)
	}
	return el
}

func (p *peState) insertElem(im *insertMsg) {
	coll := p.colls[im.CID]
	if coll == nil {
		p.pendingColl[im.CID] = append(p.pendingColl[im.CID], &Message{Kind: mInsert, CID: im.CID, Ctl: im})
		return
	}
	key := idxKey(im.Idx)
	if _, dup := coll.elems[key]; dup {
		panic(fmt.Sprintf("core: duplicate insert of element %v in collection %d", im.Idx, im.CID))
	}
	el := p.newElement(coll, im.CID, im.Idx, im.Args)
	coll.insCount++
	// If this element was inserted away from its home, tell the home.
	home := p.rt.homePE(im.CID, key)
	if home != p.pe {
		p.rt.send(home, &Message{Kind: mLocUpdate, Src: p.pe, Ctl: &locUpdateMsg{CID: im.CID, Idx: im.Idx, At: p.pe}})
	} else {
		p.setHomeLoc(im.CID, key, p.pe)
	}
	if pend := coll.pendingElem[key]; len(pend) > 0 {
		delete(coll.pendingElem, key)
		for _, m := range pend {
			p.deliverOrBuffer(coll, el, m)
		}
	}
}

func (p *peState) handleDoneInserting(dm *doneInsertingMsg) {
	coll := p.colls[dm.CID]
	switch {
	case dm.Total > 0: // phase 3: final total broadcast
		if coll == nil {
			p.pendingColl[dm.CID] = append(p.pendingColl[dm.CID], &Message{Kind: mDoneInserting, CID: dm.CID, Ctl: dm})
			return
		}
		coll.total = dm.Total
		// Reductions that were waiting for the element count may now finish.
		seqs := make([]int64, 0, len(coll.rootRed))
		for seq := range coll.rootRed {
			seqs = append(seqs, seq)
		}
		for _, seq := range seqs {
			if slot := coll.rootRed[seq]; slot != nil {
				p.redCheckComplete(coll, seq, slot)
			}
		}
	case dm.Count >= 0: // phase 2: per-PE count arriving at root
		c := p.insRoot[dm.CID]
		c.got++
		c.sum += dm.Count
		if c.got < p.rt.activePEs() {
			p.insRoot[dm.CID] = c
			return
		}
		delete(p.insRoot, dm.CID)
		p.rt.bcastAllPEs(&Message{Kind: mDoneInserting, CID: dm.CID, Src: p.pe,
			Ctl: &doneInsertingMsg{CID: dm.CID, Total: c.sum}})
	default: // phase 1: count request broadcast
		n := 0
		if coll != nil {
			n = len(coll.elems)
		}
		p.rt.send(rootPE(p.rt, dm.CID), &Message{Kind: mDoneInserting, CID: dm.CID, Src: p.pe,
			Ctl: &doneInsertingMsg{CID: dm.CID, Count: n, Total: 0}})
	}
}

// insCount is a sparse array's DoneInserting count: PEs reported, elements.
type insCount struct{ got, sum int }

// rootPE is the deterministic root PE of a collection: its reductions, its
// LB rounds (localColl.lb) and its sparse-array insertion count (insRoot).
func rootPE(rt *Runtime, cid CID) PE {
	return rt.resolvePE(PE(idxHash([]int{int(cid)}) % uint64(rt.totalPEs)))
}

// ---- invoke routing and location management ----

func (p *peState) routeInvoke(m *Message) {
	coll, el := p.elemFor(m)
	switch {
	case el != nil:
		p.deliverOrBuffer(coll, el, m)
	case coll == nil:
		p.pendingColl[m.CID] = append(p.pendingColl[m.CID], m)
	case m.Idx == nil: // broadcast: deliver to every local element
		for _, el := range coll.elems {
			p.deliverOrBuffer(coll, el, m.copyOf())
		}
	default:
		p.forward(coll, m, idxKey(m.Idx))
	}
}

// elemFor returns the element m is addressed to, if it is here, and its
// collection, if that is known here. lastEl remembers the last one found, so
// that consecutive messages to one element skip the two map lookups: it is
// valid while not dead, which the one way an element leaves (migrateOut) marks.
func (p *peState) elemFor(m *Message) (*localColl, *element) {
	if el := p.lastEl; el != nil && !el.dead && el.cid == m.CID && idxEqual(el.idx, m.Idx) {
		return el.coll, el
	}
	coll := p.colls[m.CID]
	if coll == nil || m.Idx == nil {
		return coll, nil
	}
	var kb [idxKeyBuf]byte
	if el := coll.elems[string(appendIdxKey(kb[:0], m.Idx))]; el != nil && !el.dead {
		p.lastEl = el
		return coll, el
	}
	return coll, nil
}

// routeElem locates the destination element of a non-broadcast message,
// buffering or forwarding it when it is not here. done reports that the
// message was consumed (buffered/forwarded) and el is nil in that case.
func (p *peState) routeElem(m *Message) (el *element, done bool) {
	coll, el := p.elemFor(m)
	switch {
	case el != nil:
		return el, false
	case coll == nil:
		p.pendingColl[m.CID] = append(p.pendingColl[m.CID], m)
	default:
		p.forward(coll, m, idxKey(m.Idx))
	}
	return nil, true
}

// forward implements home-based location management with forwarding
// tombstones (DESIGN.md S5).
func (p *peState) forward(coll *localColl, m *Message, key string) {
	m.hops++
	if m.hops > 120 {
		panic(fmt.Sprintf("core: message forwarding loop for %s (cid %d idx %v)", m.Method, m.CID, m.Idx))
	}
	if to, ok := p.tomb[m.CID][key]; ok {
		if m.Src >= 0 && m.hops == 1 {
			p.rt.cacheLoc(m.CID, key, to)
		}
		p.rt.send(to, m)
		return
	}
	home := p.rt.homePE(m.CID, key)
	if home == p.pe {
		if loc, ok := p.homeLoc[m.CID][key]; ok && loc != p.pe {
			p.rt.send(loc, m)
			return
		}
		// An untracked element is normally still at its initial placement. In
		// elastic mode the current view's initialPE need not be where the
		// element was actually created, so the home buffers instead — every
		// element announces its location at birth, and that announce (or the
		// rehome pass after a view commit) flushes the buffer.
		init := p.rt.initialPE(coll.cm, m.Idx)
		if init != p.pe && !p.rt.elastic() {
			if _, tracked := p.homeLoc[m.CID][key]; !tracked {
				p.rt.send(init, m)
				return
			}
		}
		// The element should be here but is not: sparse pre-insertion (or a
		// migration still in flight). Buffer until it arrives.
		coll.pendingElem[key] = append(coll.pendingElem[key], m)
		return
	}
	if c, ok := p.rt.cachedLoc(m.CID, []byte(key)); ok && c != p.pe {
		p.rt.send(c, m)
		return
	}
	if init := p.rt.initialPE(coll.cm, m.Idx); init != p.pe {
		p.rt.send(init, m)
		return
	}
	p.rt.send(home, m)
}

func (p *peState) setHomeLoc(cid CID, key string, at PE) {
	m := p.homeLoc[cid]
	if m == nil {
		m = map[string]PE{}
		p.homeLoc[cid] = m
	}
	m[key] = at
	// A migration may have raced messages into our pending buffer.
	if coll := p.colls[cid]; coll != nil && at != p.pe {
		if pend := coll.pendingElem[key]; len(pend) > 0 {
			delete(coll.pendingElem, key)
			for _, msg := range pend {
				p.rt.send(at, msg)
			}
		}
	}
}

// ---- entry-method delivery ----

func (p *peState) deliverOrBuffer(coll *localColl, el *element, m *Message) {
	info := p.resolveEM(coll, m)
	if !p.emReady(el, info, m) {
		el.buf = append(el.buf, m)
		return
	}
	if p.invokeEMInner(el, info, m) && m == p.cur {
		p.curSpent = true
	}
	p.recheck(el)
}

func (p *peState) resolveEM(coll *localColl, m *Message) *emInfo {
	if m.MID >= 0 {
		if int(m.MID) >= len(coll.ct.methods) {
			panic(fmt.Sprintf("core: bad method id %d for type %s", m.MID, coll.ct.name))
		}
		return coll.ct.methods[m.MID]
	}
	info := coll.ct.byName[m.Method]
	if info == nil {
		panic(fmt.Sprintf("core: chare type %s has no entry method %q", coll.ct.name, m.Method))
	}
	return info
}

// emReady evaluates a when-condition (paper section II-E).
func (p *peState) emReady(el *element, info *emInfo, m *Message) bool {
	if info.when == nil {
		return true
	}
	ok, err := info.when(el.iface, p.argList(m))
	if err != nil {
		panic(fmt.Sprintf("core: when-condition %q on %s.%s: %v", info.whenSrc, el.coll.ct.name, info.name, err))
	}
	return ok
}

// invokeEMInner executes one entry method (inline or threaded) without
// triggering the post-execution recheck; callers run recheck afterwards. It
// reports whether m is a box that ran inline with its Args unpacked into
// typed parameters, so that nothing the method did can still see it.
func (p *peState) invokeEMInner(el *element, info *emInfo, m *Message) (unpackedBox bool) {
	if hold := p.rt.holdEM; hold != nil {
		hold(p, m)
	}
	if info.threaded {
		p.runThreaded(el, info, m)
		return false
	}
	start := p.stamp
	if o := p.rt.obs; o != nil {
		o.emBegin(p, start)
	}
	ret, unpacked := p.callEM(el, info, m)
	end := p.now()
	p.stamp = end
	dur := end - start
	el.load += dur
	if o := p.rt.obs; o != nil {
		o.emEnd(p, el, info.name, start, dur, true)
	}
	if m.Fut.valid() {
		p.rt.sendFutureSet(p, m.Fut, ret)
	}
	return unpacked && m.boxed
}

// argList returns m's argument list, decoding any bytes m kept into its box's
// slots (new ones for a broadcast's copy) and binding them as rebindMsg would.
func (p *peState) argList(m *Message) []any {
	if raw := m.raw; len(raw) > 0 {
		if m.raw = raw[:0]; !m.boxed {
			m.Args = nil
		}
		if err := decodeInvokeArgs(m, raw, false, false); err != nil {
			panic(fmt.Sprintf("core: PE %d: %s: %v", p.pe, m.Method, err))
		}
		p.rt.rebindMsg(m)
	}
	return m.Args
}

// callEM performs the actual call of m. A type with entry-method handles
// attached (Compiled mode) dispatches through the method's typed handle with
// no reflection, reading the argument bytes m's box kept, if it kept them,
// straight into the parameters. Every other call — Interpreted mode, a type
// without handles, or a handle that declines because an argument needs
// coercion — takes the one reflective path: a per-call name lookup with
// permissive argument coercion, modelling interpreted dispatch (DESIGN.md).
//
// unpacked reports that the method received its arguments as typed
// parameters copied out of m, so that m's box is free again when the call
// returns. A variadic method is handed a slice reflect builds around them,
// which it may keep.
func (p *peState) callEM(el *element, info *emInfo, m *Message) (ret any, unpacked bool) {
	if b := el.coll.ct.typed; b != nil {
		e, ok := &b.ems[info.id], false
		if len(m.raw) > 0 && e.wire != nil {
			ret, ok = e.wire(e.fn, el.iface, m.raw, p.rt)
		}
		if !ok {
			ret, ok = e.call(el.iface, p.rebindArgs(el, p.argList(m)))
		}
		if ok {
			if o := p.rt.obs; o != nil {
				o.dispatched(dispTyped)
			}
			return ret, true
		}
	}
	if o := p.rt.obs; o != nil {
		o.dispatched(dispReflective)
	}
	args := p.rebindArgs(el, p.argList(m))
	mv := el.obj.MethodByName(info.name)
	if !mv.IsValid() {
		panic(fmt.Sprintf("core: %s has no method %s", el.coll.ct.name, info.name))
	}
	mt := mv.Type()
	in := make([]reflect.Value, mt.NumIn())
	for i := range in {
		var a any
		if i < len(args) {
			a = args[i]
		}
		in[i] = coerceArg(a, mt.In(i))
	}
	out := mv.Call(in)
	if len(out) > 0 {
		return out[0].Interface(), !info.variadic
	}
	return nil, !info.variadic
}

// coerceArg converts a received argument to the parameter type, allowing
// numeric conversions (Python-style duck typing).
func coerceArg(a any, t reflect.Type) reflect.Value {
	if a == nil {
		return reflect.Zero(t)
	}
	v := reflect.ValueOf(a)
	if v.Type().AssignableTo(t) {
		return v
	}
	if v.Type().ConvertibleTo(t) {
		return v.Convert(t)
	}
	panic(fmt.Sprintf("core: cannot pass argument of type %T as %s", a, t))
}

// ---- threaded entry methods (paper section II-H) ----

func (p *peState) runThreaded(el *element, info *emInfo, m *Message) {
	th := &emThread{resume: make(chan struct{}), el: el}
	el.liveThreads++
	p.curThread = th
	th.segStart = p.stamp
	if o := p.rt.obs; o != nil {
		o.emBegin(p, th.segStart)
	}
	go func() {
		var pv any
		func() {
			defer func() {
				if r := recover(); r != nil {
					pv = r
				}
			}()
			ret, _ := p.callEM(el, info, m)
			if m.Fut.valid() {
				p.rt.sendFutureSet(p, m.Fut, ret)
			}
		}()
		p.yieldCh <- thYield{th: th, done: true, panicVal: pv}
	}()
	p.waitYield()
}

// waitYield blocks until the running thread suspends or finishes.
func (p *peState) waitYield() {
	y := <-p.yieldCh
	el := y.th.el
	end := p.now() // this goroutine was blocked while the thread ran
	p.stamp = end
	seg := end - y.th.segStart
	el.load += seg
	p.curThread = nil
	if o := p.rt.obs; o != nil {
		o.emEnd(p, el, "(threaded)", y.th.segStart, seg, y.done) // traced as run segments
	}
	if y.done {
		el.liveThreads--
		if y.panicVal != nil {
			panic(y.panicVal)
		}
		// The chare's state may have changed: re-evaluate buffered messages
		// and wait conditions.
		p.recheck(el)
	} else {
		p.suspended[y.th] = true
	}
}

// suspendCur yields the PE token back to the scheduler and parks the calling
// thread until resumed. Must be called from the currently running thread.
func (p *peState) suspendCur() {
	th := p.curThread
	if th == nil {
		panic("core: blocking operation (future get / wait) requires a threaded entry method")
	}
	p.yieldCh <- thYield{th: th, done: false}
	if _, ok := <-th.resume; !ok {
		runtime.Goexit() // runtime shut down while suspended
	}
}

// resumeThread hands the PE token to a suspended thread and waits for its
// next yield.
func (p *peState) resumeThread(th *emThread) {
	delete(p.suspended, th)
	p.curThread = th
	th.segStart = p.stamp
	if o := p.rt.obs; o != nil {
		o.emBegin(p, th.segStart)
	}
	th.resume <- struct{}{}
	p.waitYield()
}

// ---- post-execution recheck: when-buffers, wait-conditions, migration ----

// recheck re-evaluates buffered messages and wait conditions of el until a
// fixpoint, then performs any requested migration. It runs after every entry
// method completes on el (the points at which the chare's state can change).
func (p *peState) recheck(el *element) {
	if el.inRecheck {
		return // re-entered from a nested completion; the outer loop rescans
	}
	el.inRecheck = true
	for !el.dead {
		progressed := false
		for i, w := range el.waiters {
			ok, err := w.ready(el.iface, nil)
			if err != nil {
				panic(fmt.Sprintf("core: wait-condition %q: %v", w.cond, err))
			}
			if ok {
				el.waiters = append(el.waiters[:i], el.waiters[i+1:]...)
				p.resumeThread(w.th)
				progressed = true
				break
			}
		}
		if progressed {
			continue
		}
		for i, m := range el.buf {
			info := p.resolveEM(el.coll, m)
			if p.emReady(el, info, m) {
				// el.buf held the only reference to m (wire.go), unless m is
				// the message being dispatched, which dispatch still reads.
				el.buf = slices.Delete(el.buf, i, i+1)
				if p.invokeEMInner(el, info, m) && m != p.cur {
					p.returnBox(m)
				}
				progressed = true
				break
			}
		}
		if !progressed {
			break
		}
	}
	el.inRecheck = false
	if !el.dead && el.migrateTo >= 0 && el.liveThreads == 0 {
		p.migrateOut(el)
	}
	if !el.dead && el.atSync {
		p.lbMaybeSendStats(el.coll)
	}
}

// ---- migration (paper section II-I) ----

func (p *peState) migrateOut(el *element) {
	to := el.migrateTo
	el.migrateTo = -1
	if to == p.pe {
		return
	}
	blob, err := ser.EncodeValue(el.iface)
	if err != nil {
		panic(fmt.Sprintf("core: cannot serialize chare %s[%v] for migration: %v", el.coll.ct.name, el.idx, err))
	}
	mm := &migrateMsg{
		CID:   el.cid,
		Idx:   el.idx,
		Blob:  blob,
		RedNo: el.redNo,
		Load:  el.load.Seconds(),
		LBAck: el.lbMove,
	}
	delete(el.coll.elems, el.key)
	el.dead = true
	tm := p.tomb[el.cid]
	if tm == nil {
		tm = map[string]PE{}
		p.tomb[el.cid] = tm
	}
	tm[el.key] = to
	if o := p.rt.obs; o != nil {
		o.migrateOut(p, to, el.coll.ct.name)
	}
	p.rt.send(to, &Message{Kind: mMigrate, CID: el.cid, Src: p.pe, Ctl: mm})
	// Forward buffered messages to the new location.
	for _, m := range el.buf {
		p.rt.send(to, m)
	}
	el.buf = nil
	if p.pe == p.rt.homePE(el.cid, el.key) {
		p.setHomeLoc(el.cid, el.key, to)
	}
}

// Migrated may be implemented by chares to be notified after arriving on a
// new PE (CharmPy's migrated() hook).
type Migrated interface {
	Migrated()
}

func (p *peState) migrateIn(mm *migrateMsg) {
	coll := p.colls[mm.CID]
	if coll == nil {
		p.pendingColl[mm.CID] = append(p.pendingColl[mm.CID], &Message{Kind: mMigrate, CID: mm.CID, Ctl: mm})
		return
	}
	v, err := ser.DecodeValue(mm.Blob)
	if err != nil {
		panic(fmt.Sprintf("core: cannot deserialize migrated chare: %v", err))
	}
	objv := reflect.ValueOf(v)
	el := &element{
		obj:   objv,
		iface: v,
		idx:   append([]int(nil), mm.Idx...),
		key:   idxKey(mm.Idx),
		cid:   mm.CID,
		coll:  coll,

		redNo:     mm.RedNo,
		load:      time.Duration(mm.Load * float64(time.Second)),
		migrateTo: -1,
	}
	base := v.(Chareable).chareBase()
	base.ThisIndex = el.idx
	base.ec = &elemCtx{p: p, el: el, coll: coll}
	el.base = base
	p.rebindState(el)
	// We are no longer a stale forwarding target if it boomeranged back.
	delete(p.tomb[mm.CID], el.key)
	coll.elems[el.key] = el
	home := p.rt.homePE(mm.CID, el.key)
	if home != p.pe {
		p.rt.send(home, &Message{Kind: mLocUpdate, Src: p.pe, Ctl: &locUpdateMsg{CID: mm.CID, Idx: mm.Idx, At: p.pe}})
	} else {
		p.setHomeLoc(mm.CID, el.key, p.pe)
	}
	p.rt.cacheLoc(mm.CID, el.key, p.pe)
	if o := p.rt.obs; o != nil {
		o.migrateIn(p, coll.ct.name)
	}
	if hook, ok := v.(Migrated); ok {
		hook.Migrated()
	}
	// Deliver messages that were buffered at the home for this element.
	if pend := coll.pendingElem[el.key]; len(pend) > 0 {
		delete(coll.pendingElem, el.key)
		for _, m := range pend {
			p.deliverOrBuffer(coll, el, m)
		}
	}
	if mm.LBAck {
		p.rt.send(rootPE(p.rt, mm.CID), &Message{Kind: mLBAck, CID: mm.CID, Src: p.pe})
	}
}
