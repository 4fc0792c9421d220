package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/introspect"
	"charmgo/internal/metrics"
	"charmgo/internal/ser"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

func init() {
	// Pre-register with the gob fallback every type that may travel inside
	// interface-typed argument lists or control payloads.
	for _, v := range []any{
		int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), bool(false), string(""),
		[]byte(nil), []int(nil), []int32(nil), []int64(nil),
		[]float32(nil), []float64(nil), []string(nil), []bool(nil),
		[]any(nil), map[string]any(nil), map[string]int(nil),
		map[string]float64(nil), [][]int(nil), [][]float64(nil),
		Proxy{}, Future{}, FutureRef{}, Target{}, Reducer{},
		LBObject{}, []LBObject(nil),
	} {
		ser.RegisterType(v)
	}
}

// LBStrategy computes a new element-to-PE assignment from measured loads.
// Implementations live in internal/lb. Assign sees the active PEs numbered
// [0, numPEs), the objects' PE included; lbDecide maps them (lb.go).
type LBStrategy interface {
	Name() string
	// Assign returns the new PE for every object key. Objects omitted from
	// the result stay where they are.
	Assign(objs []LBObject, numPEs int) map[string]PE
}

// Config configures a Runtime (one node of a job).
type Config struct {
	// PEs is the number of processing elements hosted by this node.
	// It must be identical on every node of a job. Default 1.
	PEs int
	// Transport connects this node to its peers. Nil means single-node.
	Transport transport.Transport
	// Dispatch selects Static (Charm++-like) or Dynamic (CharmPy-like)
	// entry-method dispatch. See DESIGN.md.
	Dispatch DispatchMode
	// ForceSerialize serializes and deserializes every cross-PE message even
	// within the node, modelling separate-process behaviour for experiments.
	ForceSerialize bool
	// LB is the load-balancing strategy run at AtSync points. Nil means
	// AtSync acts as a barrier with no migrations.
	LB LBStrategy
	// Trace, when non-nil, records the runtime's full activity lifecycle —
	// entry methods, sends/receives (queue-wait), idle spans, reductions,
	// futures, quiescence, migrations, LB decisions, aggregator flushes and
	// transport frames (Projections-style performance tracing;
	// internal/trace). With Trace, Metrics and SampleInterval all off, an
	// event site costs one predicted branch (observe.go).
	Trace *trace.Tracer
	// TraceGather makes node 0 collect every node's trace report after the
	// job exits (over the regular frame path), so Runtime.TraceReports on
	// node 0 returns the whole job. Requires Trace on every node.
	TraceGather bool
	// Metrics, when non-nil, receives the runtime's counters/gauges
	// (sends, wire bytes, batch sizes, per-PE mailbox depth, ...); expose
	// it with metrics.Serve.
	Metrics *metrics.Registry
	// SampleInterval, when > 0, turns on live introspection sampling (see
	// internal/introspect and core/introspect.go): every node snapshots its
	// PEs and collections at this period and node 0 assembles the cluster
	// view served at /introspect. 0 (the default) disables sampling.
	SampleInterval time.Duration
	// Introspect, when non-nil, is the cluster-introspection holder the
	// runtime wires at Start (node 0 fills it with every node's snapshots).
	// It is reached through metrics.Serve's /introspect: pass the same
	// *introspect.Cluster there. Nil with SampleInterval > 0 makes the
	// runtime create a holder of its own, which nothing serves.
	Introspect *introspect.Cluster
	// FT, when non-nil, enables in-memory double checkpointing (see ft.go
	// and internal/ft): Chare.FTCheckpoint ships each node's snapshot to its
	// buddy through this store, and RestartFromMemory restores a failed
	// job's chares from the surviving copies. With FT set, transport send
	// errors are dropped instead of panicking — a peer going silent is a
	// failure for the detector to handle, not a bug in this node.
	FT FTStore
	// InitialActive, when non-nil, turns on elastic membership (elastic.go):
	// the job is provisioned at Transport.NumNodes() slots but starts with
	// only the listed node ids active; the rest may ElasticJoin later, and
	// active nodes may ElasticLeave. Must list node 0 (the membership
	// coordinator) and be identical on every node. Nil (the default) keeps
	// the classic fixed-membership behaviour at zero cost.
	InitialActive []int
}

// Runtime is one node of a charmgo job: it hosts PEs, the chare-type
// registry, and the inter-node wiring. It corresponds to the per-process
// "charm" runtime object of the paper.
type Runtime struct {
	cfg      Config
	nodeID   int
	numNodes int
	basePE   PE
	totalPEs int

	mu       sync.Mutex
	types    map[string]*chareType
	maps     map[string]ArrayMap
	reducers map[string]ReducerFunc

	// Collection metadata, known on every node. Read on every proxy invoke
	// (method-id resolution, routing), written only when a collection is
	// created, so it is kept as a copy-on-write map behind an atomic pointer:
	// readers never take a lock, writers copy under collWrMu.
	collWrMu sync.Mutex
	colls    atomic.Pointer[map[CID]*createMsg]

	// last-known element locations (hints), sharded with an epoch-published
	// lock-free read path (loccache.go)
	loc *locCache

	pes     []*peState
	entry   func(*Chare)
	started atomic.Bool

	// nIdle counts the PEs parked (or about to park: counted before the
	// idle-hook flush) with nothing to run. The aggregator's sender-side
	// flush rule reads it.
	nIdle atomic.Int32

	exited atomic.Bool
	exitFn sync.Once
	wg     sync.WaitGroup
	done   chan struct{}

	// fault tolerance (ft.go)
	ftEpoch   atomic.Int64 // last committed in-memory checkpoint epoch
	cleanExit atomic.Bool  // job ended through Exit, not Abort

	qd  qdState
	cnt []peCounts // a line per local PE and, last, the node's own (quiescence.go)

	wt      *wireTables         // method-name interning, built at Start
	agg     *aggregator         // cross-node send aggregation; nil on a single node
	bufSend transport.BufSender // cfg.Transport's zero-copy send; nil if it has none

	// receive path: the node's free invoke boxes and, per sending node, what
	// de-batching its frames reuses (wire.go)
	boxes boxList
	in    []peerIn
	// poisonBoxes (tests) overwrites a box's Method, Idx and Args slots with
	// sentinels when the dispatch loop returns it, so a reference that
	// outlived the return is seen.
	poisonBoxes bool
	// holdEM (tests) is called by the executing PE with each message whose
	// entry method is about to run: a test parks a PE there, between the
	// dequeue and the handler, to see what the quiescence counters say.
	holdEM func(p *peState, m *Message)

	// t0 is the origin of the PE clocks (peState.now).
	t0 time.Time

	// spanning-tree collectives (tree.go)
	bcastSeq atomic.Uint64 // per-root fragment sequence numbers
	fragMu   sync.Mutex
	frags    map[fragKey]*fragAsm // in-flight fragmented broadcasts
	ord      *bcastOrder          // causal ordering for tree broadcasts; nil on a single node

	obs           *observer         // the one instrumentation seam; nil with every observer off (observe.go)
	traceRepCh    chan trace.Report // node 0 gather channel (TraceGather)
	gathered      []trace.Report    // node 0: all node reports after Start
	gatherTimeout time.Duration     // traceGatherTimeout, unless a test shortens it
	gatherEnd     atomic.Int64      // node 0: when the gather gave up (Unix ns); 0 until then
	nRepDropped   atomic.Int32      // node 0: reports the full gather channel turned away

	// live introspection (core/introspect.go)
	sampler *sampler            // nil unless Config.SampleInterval > 0
	intro   *introspect.Cluster // nil unless introspection is configured

	// elastic membership (elastic.go); view stays nil outside elastic mode
	view      atomic.Pointer[memberView]
	viewHook  func(epoch int64, active []bool)
	admitHook func(node int) error
	elMu      sync.Mutex    // serializes coordinator membership transitions
	running   chan struct{} // closed once Start has wired transport + PEs
	extMu     sync.Mutex    // external (channel-awaited) futures
	extSeq    int64
	extW      map[int64]*extWaiter
	byeMu     sync.Mutex // leaver-side goodbye collection
	byeWant   map[int]bool
	byeGot    map[int]bool
	byeDone   bool
	byeCh     chan struct{}

	// test/diagnostic counters
	nBackstop atomic.Int64 // batches stranded until the aggregator's backstop
	// nBcastSends counts per-destination transmissions used to originate
	// broadcasts from this node: over the spanning tree it grows by at most
	// treeArity per broadcast regardless of job size, where messaging every
	// peer would take numNodes-1. Tests assert the O(N) -> O(k) drop on it.
	nBcastSends atomic.Int64
}

// NewRuntime creates a node runtime. Register chare types on it, then call
// Start.
func NewRuntime(cfg Config) *Runtime {
	if cfg.PEs <= 0 {
		cfg.PEs = 1
	}
	rt := &Runtime{
		cfg:      cfg,
		types:    map[string]*chareType{},
		maps:     map[string]ArrayMap{},
		reducers: map[string]ReducerFunc{},
		loc:      newLocCache(),
		done:     make(chan struct{}),
		running:  make(chan struct{}),
		frags:    map[fragKey]*fragAsm{},
		t0:       time.Now(),

		gatherTimeout: traceGatherTimeout,
	}
	empty := map[CID]*createMsg{}
	rt.colls.Store(&empty)
	if cfg.Transport != nil {
		rt.nodeID = cfg.Transport.NodeID()
		rt.numNodes = cfg.Transport.NumNodes()
		rt.bufSend, _ = cfg.Transport.(transport.BufSender)
	} else {
		rt.numNodes = 1
	}
	rt.in = make([]peerIn, rt.numNodes)
	for i := range rt.in {
		rt.in[i].boxes.list = &rt.boxes
		rt.in[i].perPE = make([]*msgRun, cfg.PEs)
	}
	rt.cnt = make([]peCounts, cfg.PEs+1)
	rt.basePE = PE(rt.nodeID * cfg.PEs)
	rt.totalPEs = rt.numNodes * cfg.PEs
	if rt.treeEnabled() {
		rt.ord = &bcastOrder{
			sent:  make([]atomic.Int64, rt.numNodes),
			recv:  make([]atomic.Int64, rt.numNodes),
			holds: map[int][]*heldBcast{},
		}
	}
	if cfg.InitialActive != nil {
		rt.elasticInit()
	}
	// Everything Exit touches exists from here on, so an Exit that races (or
	// precedes) Start finds mailboxes to post to instead of a half-built slice.
	rt.pes = make([]*peState, cfg.PEs)
	for i := range rt.pes {
		rt.pes[i] = newPEState(rt, rt.basePE+PE(i))
	}
	if cfg.Trace != nil || cfg.Metrics != nil || cfg.SampleInterval > 0 {
		rt.obs = newObserver(rt)
	}
	if rt.numNodes > 1 {
		rt.agg = newAggregator(rt)
	}
	rt.Register(&mainChare{}, Threaded("Run"))
	return rt
}

// NumPEs returns the total number of PEs across the whole job.
func (rt *Runtime) NumPEs() int { return rt.totalPEs }

// mainChare hosts the user entry point on PE 0 as an implicitly threaded
// entry method, like CharmPy's entry point (paper section II-B).
type mainChare struct {
	Chare
}

// Run invokes the runtime's registered entry function.
func (m *mainChare) Run() {
	rt := m.ec.p.rt
	if rt.entry != nil {
		rt.entry(&m.Chare)
	}
}

// Start launches the node's PEs and, on node 0, runs entry as the program
// entry point. It blocks until Exit is called somewhere in the job.
func (rt *Runtime) Start(entry func(self *Chare)) {
	if rt.started.Swap(true) {
		panic("core: Start called twice")
	}
	rt.entry = entry
	rt.mu.Lock()
	rt.wt = buildWireTables(rt.types)
	rt.mu.Unlock()
	if rt.cfg.Introspect != nil || rt.cfg.SampleInterval > 0 {
		rt.setupIntrospect()
	}
	if tr := rt.cfg.Transport; tr != nil {
		tr.SetHandler(rt.onFrame)
	}
	for _, p := range rt.pes {
		rt.wg.Add(1)
		go func(p *peState) {
			defer rt.wg.Done()
			p.loop()
		}(p)
	}
	if rt.sampler != nil {
		go rt.sampler.loop()
	}
	close(rt.running) // transport wired, PEs draining: elastic requests may go
	if rt.nodeID == 0 {
		rt.pes[0].mbox.push(&Message{Kind: mStartMain, Src: -1})
	}
	rt.wg.Wait()
	if rt.sampler != nil {
		rt.sampler.shutdown()
	}
	if rt.agg != nil {
		rt.agg.shutdown()
	}
	if err := rt.gatherTraces(); err != nil {
		warn(err)
	}
	close(rt.done)
}

// Exit terminates the whole job (paper: charm.exit()). Safe to call from any
// entry method on any node.
func (rt *Runtime) Exit() {
	rt.exitFn.Do(func() {
		rt.cleanExit.Store(true)
		rt.exited.Store(true)
		// A node that already left the membership shuts down alone: the job
		// keeps running on the remaining members.
		if rt.cfg.Transport != nil && rt.nodeActive(rt.nodeID) {
			if rt.agg != nil {
				// Preserve ordering: pending application traffic must reach
				// peers before the exit frame.
				rt.agg.flushAll(flushIdle)
			}
			exit := &Message{Kind: mExit, Src: -1}
			for n := 0; n < rt.numNodes; n++ {
				if n != rt.nodeID && rt.nodeActive(n) {
					// xmit swallows errors once exited; a peer may be down
					rt.ordSentTo(n)
					// nil tables: Start may be building rt.wt right now
					rt.xmit(n, appendMsg(transport.GetBuf(), -1, exit, nil))
				}
			}
		}
		rt.localExit()
	})
}

func (rt *Runtime) localExit() {
	rt.exited.Store(true)
	for _, p := range rt.pes {
		p.mbox.pushFront(&Message{Kind: mExit, Src: -1})
	}
}

// nodeOf returns the node hosting a global PE.
func (rt *Runtime) nodeOf(pe PE) int { return int(pe) / rt.cfg.PEs }

// localPE returns the peState for a global PE hosted by this node.
func (rt *Runtime) localPE(pe PE) *peState {
	return rt.pes[int(pe)-int(rt.basePE)]
}

func (rt *Runtime) isLocal(pe PE) bool {
	return int(pe) >= int(rt.basePE) && int(pe) < int(rt.basePE)+rt.cfg.PEs
}

// send routes m to the PE that should handle it.
func (rt *Runtime) send(pe PE, m *Message) {
	// Whoever sends a decoded message again (a forward, a migration's
	// backlog) has kept it: its box is not returned.
	m.boxed = false
	pe = rt.admit(pe, m)
	if rt.isLocal(pe) {
		rt.sendLocal(pe, m)
		return
	}
	rt.agg.send(rt.countWire(pe, m.Src), pe, m)
}

// sendInvoke is send for an invoke, with arguments args, that admit routed to
// another node: both are only read, so they stay on the caller's stack.
func (rt *Runtime) sendInvoke(pe PE, m *Message, args []any) {
	rt.agg.sendInvoke(rt.countWire(pe, m.Src), pe, m, args)
}

// admit checks and resolves a send's destination and counts and traces the
// send; what follows depends on where the returned PE lives.
func (rt *Runtime) admit(pe PE, m *Message) PE {
	if pe < 0 || int(pe) >= rt.totalPEs {
		panic(fmt.Sprintf("core: send to invalid PE %d (total %d)", pe, rt.totalPEs))
	}
	// Elastic membership: destinations on inactive slots delegate to the
	// slot's stand-in node (stale tombs and caches self-heal by forwarding).
	pe = rt.resolvePE(pe)
	rt.qdSent(m.Src, m.Kind, 1)
	if o := rt.obs; o != nil {
		o.sent(m, pe)
	}
	return pe
}

// sendLocal delivers an admitted message to a PE of this node: by reference,
// or through the codec under Config.ForceSerialize.
func (rt *Runtime) sendLocal(pe PE, m *Message) {
	if rt.cfg.ForceSerialize && serializableKind(m.Kind) {
		frame := appendMsg(transport.GetBuf(), pe, m, rt.wt)
		_, m2, err := rt.decodeFrame(frame[transport.PrefixLen:], false, nil)
		transport.PutBuf(frame)
		if err != nil {
			panic("core: ForceSerialize roundtrip: " + err.Error())
		}
		rt.rebindMsg(m2)
		m = m2
	}
	rt.counts(m.Src).local.Add(1)
	if o := rt.obs; o != nil {
		o.enqueue(m)
	}
	rt.localPE(pe).mbox.push(m)
}

// countWire accounts for one message from src leaving for pe's node, returned.
func (rt *Runtime) countWire(pe, src PE) int {
	rt.counts(src).wire.Add(1)
	node := rt.nodeOf(pe)
	rt.ordSentTo(node) // tree broadcasts must not overtake this message
	return node
}

// xmit hands a pooled frame buffer (from transport.GetBuf, payload after
// the reserved prefix) to the transport, using the zero-copy SendBuf path
// when available. It takes ownership of buf.
func (rt *Runtime) xmit(node int, buf []byte) {
	if o := rt.obs; o != nil {
		o.frame(true, node, len(buf)-transport.PrefixLen)
	}
	var err error
	if rt.bufSend != nil {
		err = rt.bufSend.SendBuf(node, buf)
	} else {
		err = rt.cfg.Transport.Send(node, buf[transport.PrefixLen:])
		transport.PutBuf(buf)
	}
	if err != nil && !rt.exited.Load() {
		if rt.cfg.FT != nil || rt.elastic() {
			// A send to a dying or departed peer: drop the frame. The failure
			// detector (internal/ft) or the membership protocol owns the
			// peer's lifecycle; panicking here would take this node down too.
			return
		}
		panic(fmt.Sprintf("core: transport send to node %d: %v", node, err))
	}
}

// xmitShared transmits one buffer to several nodes, taking ownership of buf.
// Transports that can fan out a refcounted buffer (the in-memory one) get
// the whole destination list in one call; others receive per-node copies —
// the last destination takes the original buffer.
func (rt *Runtime) xmitShared(nodes []int, buf []byte) {
	if len(nodes) == 0 {
		transport.PutBuf(buf)
		return
	}
	if sb, ok := rt.cfg.Transport.(transport.SharedBufSender); ok && len(nodes) > 1 {
		if o := rt.obs; o != nil {
			for _, n := range nodes {
				o.frame(true, n, len(buf)-transport.PrefixLen)
			}
		}
		// Copy the destination list before the interface call so callers'
		// stack-allocated child arrays don't escape on the non-shared path.
		ns := make([]int, len(nodes))
		copy(ns, nodes)
		if err := sb.SendBufShared(ns, buf); err != nil && !rt.exited.Load() && rt.cfg.FT == nil && !rt.elastic() {
			panic(fmt.Sprintf("core: transport send to nodes %v: %v", ns, err))
		}
		return
	}
	body := buf[transport.PrefixLen:]
	for i, n := range nodes {
		out := buf
		if i < len(nodes)-1 {
			out = append(transport.GetBuf(), body...)
		}
		rt.xmit(n, out)
	}
}

// bcastAllPEs delivers m to every PE in the job: over the k-ary spanning
// tree (the source sends at most treeArity frames and each node relays to its
// children) and to this node's own PEs.
func (rt *Runtime) bcastAllPEs(m *Message) {
	if rt.treeEnabled() {
		rt.bcastTree(m)
	}
	rt.deliverAllLocal(m)
}

// deliverAllLocal hands a node-level broadcast to every local PE. The
// message was decoded (or built) once on this node; all PEs share the same
// immutable *Message — and therefore the same argument backing — instead of
// receiving per-PE copies. The exceptions are the message shapes a handler
// mutates in place (element-addressed invokes bump the forwarding hop
// count, channel messages rebind their value lazily): those keep per-PE
// copies.
func (rt *Runtime) deliverAllLocal(m *Message) { rt.deliverAllLocalShared(m, nil) }

// deliverAllLocalShared is deliverAllLocal with a release hook that runs
// after the last PE finishes handling the message (fragmented broadcasts
// use it to recycle the pooled reassembly buffer).
func (rt *Runtime) deliverAllLocalShared(m *Message, release func()) {
	if o := rt.obs; o != nil {
		o.fanOut(m, len(rt.pes))
	}
	if (m.Kind == mInvoke && m.Idx != nil) || m.Kind == mChanMsg {
		rt.qdSent(m.Src, m.Kind, len(rt.pes)) // per copy; done when its PE has handled it
		for _, p := range rt.pes {
			p.mbox.push(m.copyOf())
		}
		if release != nil {
			release()
		}
		return
	}
	sh := &msgShared{release: release}
	sh.refs.Store(int32(len(rt.pes)))
	m.shared = sh
	rt.qdSent(m.Src, m.Kind, len(rt.pes)) // per delivery; done when that PE has handled it
	for _, p := range rt.pes {
		p.mbox.push(m)
	}
}

// peerIn is what the receive path keeps per sending node instead of
// rebuilding it per frame: the runs onBatch sorts a batch into and a stock of
// free invoke boxes. A transport calls the handler from one goroutine per
// peer; mu is for a peer that re-dials (elastic rejoin) while its previous
// connection's last frame is still being handled.
type peerIn struct {
	mu    sync.Mutex
	perPE []*msgRun // local unicasts of the batch being split, by local PE; nil: none yet
	boxes boxStock
}

func (rt *Runtime) peerIn(from int) *peerIn {
	if from >= 0 && from < len(rt.in) {
		return &rt.in[from]
	}
	// A peer id outside the job (the transport takes it from the dialer's
	// hello unchecked): nothing is kept for it.
	return &peerIn{perPE: make([]*msgRun, len(rt.pes)), boxes: boxStock{list: &rt.boxes}}
}

// onFrame handles an inbound frame from another node. A frame is valid only
// for the duration of this call, whichever transport and send path delivered
// it (internal/transport): everything kept is decoded or copied out of it.
func (rt *Runtime) onFrame(from int, frame []byte) {
	if o := rt.obs; o != nil {
		o.frame(false, from, len(frame))
	}
	if len(frame) >= 4 {
		switch d := int32(binary.LittleEndian.Uint32(frame)); {
		case d == batchDest:
			rt.onBatch(from, frame[4:])
			return
		case d == fragDest:
			rt.onFragment(from, frame)
			return
		case d <= treeDestBase:
			rt.onTreeBcast(from, frame)
			return
		}
	}
	in := rt.peerIn(from)
	in.mu.Lock()
	dest, m, err := rt.decodeFrame(frame, false, &in.boxes)
	if err != nil {
		panic(fmt.Sprintf("core: bad frame from node %d: %v", from, err))
	}
	m, dest, local := rt.route(from, dest, m)
	in.mu.Unlock()
	if local {
		if o := rt.obs; o != nil {
			o.enqueue(m)
		}
		kind := m.Kind // m is the PE's once pushed: it may be a box on its way back
		rt.localPE(dest).mbox.push(m)
		if !elasticKind(kind) {
			// Membership-protocol traffic is uncounted on both ends
			// (elastic.go): its sender bypassed the sent vector too.
			rt.ordRecvFrom(from)
		}
	}
	rt.ordRelease(from)
}

// onBatch de-batches an aggregated frame. What it holds for one local PE
// reaches that PE as one mailbox item: a run (wire.go) in frame order, or the
// message itself when there is only one.
func (rt *Runtime) onBatch(from int, body []byte) {
	in := rt.peerIn(from)
	in.mu.Lock()
	defer in.mu.Unlock()
	perPE := in.perPE
	pending := 0 // buffered local unicasts not yet counted for ordering
	flush := func() {
		for i, r := range perPE {
			switch {
			case r == nil || len(r.ms) == 0:
			case len(r.ms) == 1:
				rt.pes[i].mbox.push(r.ms[0])
				r.ms[0], r.ms = nil, r.ms[:0]
			default:
				perPE[i] = nil // the PE's now, until it returns it as a chunk of boxes
				rt.pes[i].mbox.push(&r.m)
			}
		}
		// Count the ordering receives only now that the messages are in the
		// mailboxes — a count may release a held tree broadcast, which must
		// enqueue behind them.
		rt.ordRecvN(from, pending)
		pending = 0
	}
	b := batchReader{body: body, wt: rt.wt, rt: rt, boxes: &in.boxes}
	for {
		dest, m, err := b.next()
		if err != nil {
			panic(fmt.Sprintf("core: bad batch frame from node %d: %v", from, err))
		}
		if m == nil {
			break
		}
		// A message that route delivers itself (broadcast, forward, exit)
		// must not overtake the unicasts batched before it: flush first.
		if dest < 0 || !rt.isLocal(dest) {
			flush()
		}
		m, dest, local := rt.route(from, dest, m)
		if local {
			if o := rt.obs; o != nil {
				o.enqueue(m)
			}
			i := int(dest - rt.basePE)
			if perPE[i] == nil {
				perPE[i] = rt.boxes.get(false)
			}
			perPE[i].ms = append(perPE[i].ms, m)
			pending++
		} else if m != nil && m.Kind == mExit {
			return
		}
	}
	flush()
	rt.ordRelease(from)
}

// route takes one message decoded from a frame of node from, or from a batch
// sub-frame, addressed to dest. It returns (m, dest, true) when the message is
// a unicast for a local PE (the caller enqueues it), and handles every other
// case itself.
func (rt *Runtime) route(from int, dest PE, m *Message) (*Message, PE, bool) {
	if o := rt.obs; o != nil {
		o.decoded(m.Kind)
	}
	rt.rebindMsg(m)
	// Causal-ordering receive counts (tree.go): a tree broadcast from this
	// sender is held until every direct message it had already sent us has
	// been ingressed AND is visible locally. The branches route handles
	// itself count here; the returned-unicast case is counted by the caller
	// after the mailbox push.
	if m.Kind == mElasticBye {
		// Goodbye from a member that applied this node's retirement view;
		// uncounted like all membership traffic (elastic.go).
		if bm, ok := m.Ctl.(*elasticByeMsg); ok {
			rt.byeFrom(bm.From)
		}
		return nil, 0, false
	}
	if m.Kind == mExit {
		rt.ordRecvFrom(from)
		rt.cleanExit.Store(true) // a peer's Exit reached us: orderly shutdown
		rt.localExit()
		return m, 0, false
	}
	if m.Kind == mTraceReport {
		rt.ordRecvFrom(from)
		if tm, ok := m.Ctl.(*traceReportMsg); ok {
			if err := rt.takeTraceReport(tm.Report); err != nil {
				warn(err)
			}
		}
		return nil, 0, false
	}
	if m.Kind == mIntroReport {
		rt.ordRecvFrom(from)
		if rm, ok := m.Ctl.(*introReportMsg); ok {
			rt.introReport(rm)
		}
		return nil, 0, false
	}
	if dest < 0 {
		rt.ordRecvFrom(from)
		rt.deliverAllLocal(m)
		qdDone(rt.counts(-1), m.Kind) // the broadcast frame, its per-PE copies counted
		return nil, 0, false
	}
	if !rt.isLocal(dest) {
		// mis-routed (e.g. stale location): forward, which counts as a fresh
		// send, and only then count the frame done here
		rt.ordRecvFrom(from)
		rt.send(dest, m)
		qdDone(rt.counts(-1), m.Kind)
		return nil, 0, false
	}
	return m, dest, true
}

// MsgCounts returns (local, wire) message counts; used by tests and benches.
func (rt *Runtime) MsgCounts() (local, wire int64) {
	for i := range rt.cnt {
		local += rt.cnt[i].local.Load()
		wire += rt.cnt[i].wire.Load()
	}
	return local, wire
}

// collection metadata

// putCollMeta publishes cm on this node. A createMsg shared by the node's PEs
// arrives with cm.ct already resolved — by the creating PE's own putCollMeta
// before the fan-out, or at decode (rebindMsg) — so PEs only read it; the
// lazy write below runs for a creator or for a PE-private copy.
func (rt *Runtime) putCollMeta(cm *createMsg) {
	if cm.ct == nil {
		rt.mu.Lock()
		cm.ct = rt.types[cm.Type] // may stay nil for types unknown here
		rt.mu.Unlock()
	}
	rt.collWrMu.Lock()
	old := *rt.colls.Load()
	next := make(map[CID]*createMsg, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[cm.CID] = cm
	rt.colls.Store(&next)
	rt.collWrMu.Unlock()
}

func (rt *Runtime) collMeta(cid CID) *createMsg {
	return (*rt.colls.Load())[cid]
}

// location cache (hints only; authoritative state lives at home PEs)

func (rt *Runtime) cacheLoc(cid CID, key string, pe PE) {
	rt.loc.put(cid, key, pe)
}

func (rt *Runtime) cachedLoc(cid CID, key []byte) (PE, bool) {
	return rt.loc.get(cid, key)
}

// homePE returns the element's home PE, which tracks its location after
// migrations (Charm++-style location management). The hash runs over the
// full fixed PE space; elastic delegation then folds inactive slots onto
// their stand-ins, so homes stay stable across view changes for every slot
// that remains active.
func (rt *Runtime) homePE(cid CID, key string) PE {
	return rt.resolvePE(PE(idxHash(keyIdx(key)) % uint64(rt.totalPEs)))
}

// initialPE computes the deterministic initial placement of an element
// (delegated onto the active set in elastic mode).
func (rt *Runtime) initialPE(cm *createMsg, idx []int) PE {
	return rt.resolvePE(rt.initialPERaw(cm, idx))
}

func (rt *Runtime) initialPERaw(cm *createMsg, idx []int) PE {
	switch cm.Kind {
	case ckSingle:
		if cm.OnPE >= 0 {
			// A restored checkpoint may pin a chare to a PE beyond a shrunk
			// job's range; wrap instead of sending into the void.
			return PE(int(cm.OnPE) % rt.totalPEs)
		}
		return PE(uint32(cm.CID) % uint32(rt.totalPEs))
	case ckGroup:
		return PE(idx[0] % rt.totalPEs)
	case ckArray:
		if cm.MapName != "" {
			rt.mu.Lock()
			am := rt.maps[cm.MapName]
			rt.mu.Unlock()
			if am == nil {
				panic(fmt.Sprintf("core: array map %q not registered on node %d", cm.MapName, rt.nodeID))
			}
			return PE(am.ProcNum(idx, rt.totalPEs) % rt.totalPEs)
		}
		// default: contiguous blocks of the linearized index space
		n := numElems(cm.Dims)
		pos := linearize(idx, cm.Dims)
		return PE(pos * rt.totalPEs / n)
	case ckSparse:
		return rt.homePE(cm.CID, idxKey(idx))
	}
	panic("core: unknown collection kind")
}

func serializableKind(k msgKind) bool {
	switch k {
	case mInvoke, mFutureSet, mRedPartial:
		return true
	}
	return false
}
