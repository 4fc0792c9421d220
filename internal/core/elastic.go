package core

// Elastic cluster membership (DESIGN.md §3.8). The fault-tolerance subsystem
// (ft.go, internal/ft) reacts to crashes; this file generalizes that path
// into planned, zero-downtime reconfiguration: a node may join a running job
// and receive migrated chares, and a node may drain, migrate its elements
// out, and depart without tripping the failure detector or dropping a
// message.
//
// The model is fixed-width slots: a job is provisioned at a maximum width of
// N nodes (the transport knows all N addresses), and membership is an
// epoch-versioned view over those slots — a boolean per node plus a
// deterministic delegation map that routes every PE of an inactive slot to
// the same local PE index on the next active node. PE numbering, home-PE
// hashing and the wire format never change; activation and deactivation are
// purely a matter of which slots resolve to themselves. Config.InitialActive
// turns the mode on; a nil view (the default) makes every resolution a
// predicted-branch no-op, so non-elastic jobs pay nothing.
//
// Membership changes are coordinated by node 0 (always active) over the
// mElastic* control kinds, which bypass quiescence counting, send batching,
// view delegation, and the tree-broadcast causal-order vectors on BOTH ends
// (elasticKind): the protocol runs while those vectors are being
// reconfigured, so it cannot be accounted in them. A joiner is admitted, has
// the cluster's collection metadata installed on each of its PEs, and
// becomes active in a view commit applied by every member (coordinator
// first, joiner last); a leaver has its elements drained out by censused
// move orders (lb.go), becomes inactive in a commit, collects a goodbye
// from every remaining member, lets its mailboxes settle, and departs. Each
// commit application rescans element homes (the "rehome" pass),
// force-releases and zeroes the broadcast order vectors of newly-INACTIVE
// slots (so a later fresh runtime can reoccupy the slot; newly-active slots
// need no reset — see applyView), scrubs location caches of deactivated
// slots, and re-derives the collective spanning tree over the active set
// (viewChildren/viewParent).
//
// Constraints, by design: reductions fall back to the flat direct-to-root
// combine in elastic mode (tree-combiner subtree counts are static
// arithmetic, incompatible with delegation), and collective traffic in
// flight across a view commit may observe the old membership — drivers
// quiesce broadcasts/reductions around ElasticJoin/ElasticLeave, while plain
// unicast request/reply traffic (the serving workload) runs through
// transitions untouched.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"charmgo/internal/transport"
)

// elastic control ops (elasticCtlMsg.Op).
const (
	elOpJoin uint8 = iota
	elOpLeave
)

// elasticCtlMsg is a join/leave request sent by the affected node to the
// coordinator; the outcome arrives on Ack as an error string ("" = success).
type elasticCtlMsg struct {
	Op   uint8
	Node int
	Ack  FutureRef
}

// elasticCollState ships one collection's creation record (plus the fixed
// element total of sparse collections) to a joining node.
type elasticCollState struct {
	Create createMsg
	Total  int
}

// elasticStateMsg installs the cluster's collection metadata on one PE of a
// joining node.
type elasticStateMsg struct {
	Colls []elasticCollState
	Ack   FutureRef
}

// elasticViewMsg commits a membership view: the active node ids at Epoch.
// Every local PE of the receiving node acknowledges to Ack after its rehome
// pass, so the coordinator knows when the whole cluster has converged.
type elasticViewMsg struct {
	Epoch  int64
	Active []int
	Ack    FutureRef
}

// elasticCensusMsg polls one PE for the elements it hosts (and, WithColls,
// its collection records); the *elasticCensusReply arrives on Ack.
type elasticCensusMsg struct {
	WithColls bool
	Ack       FutureRef
}

type elasticCensusReply struct {
	PE    PE
	Colls []elasticCollState
	Elems []elasticElemInfo
}

type elasticElemInfo struct {
	CID  CID
	Key  string
	Busy bool
}

// elasticByeMsg tells a departing node that one remaining member has applied
// the view that retires it; the departing node tears down its transport only
// after hearing from everyone.
type elasticByeMsg struct {
	From int
}

// elasticRehomeMsg asks a local PE to rescan element homes after a view
// commit (node-local, never serialized).
type elasticRehomeMsg struct {
	Ack FutureRef
}

// elasticKind reports whether a message kind belongs to the membership
// protocol: transmitted unbatched, never delegated, and uncounted by the
// tree-broadcast causal-order vectors on both ends (countableKind already
// excludes these kinds from quiescence). mElasticAck exists so the
// protocol's own future completions stay on this uncounted path while
// regular mFutureSet traffic — including replies to ExtCall — remains
// counted symmetrically.
func elasticKind(k msgKind) bool {
	switch k {
	case mElasticCtl, mElasticState, mElasticView, mElasticCensus, mElasticBye, mElasticAck:
		return true
	}
	return false
}

// memberView is one epoch of cluster membership: which of the job's fixed
// node slots are active, plus the derived delegation map. Immutable once
// built; swapped atomically in Runtime.view.
type memberView struct {
	epoch  int64
	active []bool // indexed by node slot
	nodes  []int  // active node ids, ascending
	deleg  []int  // node -> delegate node (itself when active)
	full   bool   // all slots active: resolution is the identity
}

// buildView derives a memberView from an active-id list. Delegation is
// deterministic — an inactive slot n is served by the first active slot
// scanning upward from n+1 (wrapping) — so every node computes the same map
// from the same id list.
func buildView(epoch int64, numNodes int, activeIDs []int) *memberView {
	v := &memberView{
		epoch:  epoch,
		active: make([]bool, numNodes),
		deleg:  make([]int, numNodes),
	}
	for _, id := range activeIDs {
		if id < 0 || id >= numNodes || v.active[id] {
			panic(fmt.Sprintf("core: bad active-node list %v for %d slots", activeIDs, numNodes))
		}
		v.active[id] = true
	}
	if !v.active[0] {
		panic("core: node 0 must be in every membership view (it is the coordinator)")
	}
	for n := 0; n < numNodes; n++ {
		if v.active[n] {
			v.nodes = append(v.nodes, n)
		}
	}
	for n := 0; n < numNodes; n++ {
		d := n
		for !v.active[d] {
			d = (d + 1) % numNodes
		}
		v.deleg[n] = d
	}
	v.full = len(v.nodes) == numNodes
	return v
}

// resolvePE maps a PE on an inactive slot to the same local PE index on its
// delegate node; PEs of active slots resolve to themselves.
func (v *memberView) resolvePE(pe PE, pesPerNode int) PE {
	if v.full {
		return pe
	}
	n := int(pe) / pesPerNode
	d := v.deleg[n]
	if d == n {
		return pe
	}
	return PE(d*pesPerNode + int(pe)%pesPerNode)
}

// rank returns a node's position in the active list, or -1 when inactive.
func (v *memberView) rank(node int) int {
	for i, n := range v.nodes {
		if n == node {
			return i
		}
	}
	return -1
}

// elastic reports whether this runtime participates in elastic membership.
func (rt *Runtime) elastic() bool { return rt.view.Load() != nil }

// resolvePE applies the current view's delegation to a destination PE; the
// identity outside elastic mode.
func (rt *Runtime) resolvePE(pe PE) PE {
	if v := rt.view.Load(); v != nil {
		return v.resolvePE(pe, rt.cfg.PEs)
	}
	return pe
}

// nodeActive reports whether a node slot is active in the current view
// (always true outside elastic mode).
func (rt *Runtime) nodeActive(n int) bool {
	if v := rt.view.Load(); v != nil {
		return v.active[n]
	}
	return true
}

// activeNodeCount returns the number of active nodes in the current view.
func (rt *Runtime) activeNodeCount() int {
	if v := rt.view.Load(); v != nil {
		return len(v.nodes)
	}
	return rt.numNodes
}

// activePEs returns the number of PEs hosted by active nodes — the group
// membership count, the per-PE reply quorum of the doneInserting count and
// of forced LB rounds, and the broadcast-future need in elastic mode.
func (rt *Runtime) activePEs() int { return rt.activeNodeCount() * rt.cfg.PEs }

// ActiveNodes returns the active node ids of the current membership view
// (every node outside elastic mode).
func (rt *Runtime) ActiveNodes() []int {
	if v := rt.view.Load(); v != nil {
		return append([]int(nil), v.nodes...)
	}
	out := make([]int, rt.numNodes)
	for i := range out {
		out[i] = i
	}
	return out
}

// ActivePEList returns the global PE ids hosted by the active nodes of the
// current membership view (every PE outside elastic mode).
func (rt *Runtime) ActivePEList() []PE {
	out := make([]PE, 0, rt.totalPEs)
	for _, n := range rt.ActiveNodes() {
		for i := 0; i < rt.cfg.PEs; i++ {
			out = append(out, PE(n*rt.cfg.PEs+i))
		}
	}
	return out
}

// MailboxDepth returns the total number of messages queued in this node's
// PE mailboxes — the backlog signal admission control gates on. Safe from
// any goroutine.
func (rt *Runtime) MailboxDepth() int {
	n := 0
	for _, p := range rt.pes {
		n += p.depth()
	}
	return n
}

// ViewEpoch returns the current membership epoch (0 outside elastic mode).
func (rt *Runtime) ViewEpoch() int64 {
	if v := rt.view.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// SetViewHook registers a callback invoked (on a PE scheduler or the
// coordinator goroutine) after each membership view is applied on this node.
// The fault-tolerance glue uses it to re-scope the failure detector's watch
// set. Must be set before Start.
func (rt *Runtime) SetViewHook(f func(epoch int64, active []bool)) { rt.viewHook = f }

// SetAdmission registers a join-admission gate consulted by the coordinator
// before admitting a node; a non-nil error rejects the join. Must be set
// before Start, on node 0.
func (rt *Runtime) SetAdmission(f func(node int) error) { rt.admitHook = f }

// viewChildren appends this node's children in the collective spanning tree
// rooted at root, derived over the ACTIVE node set: ranks are relabeled over
// the active list so the k-ary arithmetic of tree.go applies unchanged, then
// mapped back to real node ids. Outside elastic mode (or with every slot
// active) it is the plain fixed-width derivation. An inactive self or root
// yields no children — such frames are strays from a view transition and die
// out at delivery.
func (rt *Runtime) viewChildren(dst []int, root int) []int {
	v := rt.view.Load()
	if v == nil || v.full {
		return appendTreeChildren(dst, rt.nodeID, root, rt.numNodes, treeArity)
	}
	selfR, rootR := v.rank(rt.nodeID), v.rank(root)
	if selfR < 0 || rootR < 0 {
		return dst
	}
	n := len(v.nodes)
	rel := ((selfR-rootR)%n + n) % n
	for c := rel*treeArity + 1; c <= rel*treeArity+treeArity && c < n; c++ {
		dst = append(dst, v.nodes[(c+rootR)%n])
	}
	return dst
}

// viewParent returns this node's parent in the collective spanning tree
// rooted at root over the active set (-1 at the root), falling back to node
// 0 when self or root is not active.
func (rt *Runtime) viewParent(root int) int {
	v := rt.view.Load()
	if v == nil || v.full {
		return treeParent(rt.nodeID, root, rt.numNodes, treeArity)
	}
	selfR, rootR := v.rank(rt.nodeID), v.rank(root)
	if selfR < 0 || rootR < 0 {
		return 0
	}
	if pr := treeParent(selfR, rootR, len(v.nodes), treeArity); pr >= 0 {
		return v.nodes[pr]
	}
	return -1
}

// ---- external futures ----

// External futures give non-chare goroutines (the elastic coordinator, the
// admission-control front end, benchmark drivers) a completion primitive on
// the regular wire path. They use negative ids so the PE-owned positive
// space is untouched; the mFutureSet and mElasticAck handlers divert
// negative ids to extComplete before the per-PE future table is consulted.

type extWaiter struct {
	need int
	vals []any // collected values; unused when need == 1
	ch   chan any
}

// NewExtFuture creates a future completable from any node via the normal
// future-set path but awaited on a channel instead of a threaded entry
// method. The channel receives the value (or, for need > 1, the []any of all
// values in arrival order) exactly once. The future belongs to this node's
// base PE on the wire.
func (rt *Runtime) NewExtFuture(need int) (FutureRef, <-chan any) {
	if need < 1 {
		need = 1
	}
	w := &extWaiter{need: need, ch: make(chan any, 1)}
	rt.extMu.Lock()
	rt.extSeq++
	id := -rt.extSeq
	if rt.extW == nil {
		rt.extW = map[int64]*extWaiter{}
	}
	rt.extW[id] = w
	rt.extMu.Unlock()
	return FutureRef{PE: rt.basePE, ID: id}, w.ch
}

// DropExtFuture abandons an external future (timeout paths); late values are
// silently discarded.
func (rt *Runtime) DropExtFuture(ref FutureRef) {
	rt.extMu.Lock()
	delete(rt.extW, ref.ID)
	rt.extMu.Unlock()
}

// extComplete delivers one value to an external future (called by the base
// PE's scheduler on a future set with a negative id).
func (rt *Runtime) extComplete(id int64, v any) {
	rt.extMu.Lock()
	w := rt.extW[id]
	if w == nil {
		rt.extMu.Unlock()
		return
	}
	if w.need > 1 {
		w.vals = append(w.vals, v)
		if len(w.vals) < w.need {
			rt.extMu.Unlock()
			return
		}
		v = w.vals
	}
	delete(rt.extW, id)
	rt.extMu.Unlock()
	w.ch <- v
}

// ExtCall invokes an entry method on the referenced element from any
// goroutine — no chare context required — returning a channel that receives
// the method's return value. It is the admission-control front end's request
// path (TriggerLBRound set the precedent that the send path is safe off the
// PE schedulers); the returned ref can be passed to DropExtFuture to abandon
// a request that timed out. The reply travels the regular counted mFutureSet
// path, unlike the membership protocol's own acks.
func (pr Proxy) ExtCall(method string, args ...any) (<-chan any, FutureRef) {
	rt := pr.runtime()
	if pr.Elem == nil {
		panic("core: ExtCall requires an element-indexed proxy")
	}
	ref, ch := rt.NewExtFuture(1)
	pr.invoke(method, args, ref)
	return ch, ref
}

// ---- transmission ----

// sendElastic transmits an elastic control message to a PE, bypassing view
// delegation, batching, and the causal-order sent vectors. It is the
// protocol's channel to inactive nodes — regular send would delegate those
// destinations away.
func (rt *Runtime) sendElastic(pe PE, m *Message) {
	if rt.isLocal(pe) {
		rt.localPE(pe).mbox.push(m)
		return
	}
	rt.xmit(rt.nodeOf(pe), appendMsg(transport.GetBuf(), pe, m, rt.wt))
}

// sendFutureSetRaw completes a future over the uncounted elastic-ack path,
// without view delegation — the reply channel to nodes that are (or just
// became) inactive, and the ack channel of the membership protocol itself.
func (rt *Runtime) sendFutureSetRaw(ref FutureRef, v any) {
	rt.sendElastic(ref.PE, &Message{Kind: mElasticAck, Src: -1, Fut: ref, Args: []any{v}})
}

// ---- view application ----

// applyView installs a committed membership view on this node: swap the
// view, flush-and-zero the broadcast order vectors of newly-inactive slots,
// scrub location caches pointing at them, send them a goodbye, notify the
// view hook, then push a rehome pass (acking to ack) to every local PE.
// Runs on the coordinator goroutine (its own local apply) or on a PE
// scheduler (mElasticView). Newly-ACTIVE slots need no vector reset: a
// joining runtime is fresh and all pre-commit protocol traffic is uncounted,
// so both sides of every new pairing already agree on zero — resetting here
// would race with the joiner's first post-commit counted sends at nodes that
// apply the commit late.
func (rt *Runtime) applyView(epoch int64, activeIDs []int, ack FutureRef) {
	old := rt.view.Load()
	if old == nil {
		panic("core: view commit on a non-elastic runtime")
	}
	if epoch <= old.epoch {
		return // duplicate/stale commit
	}
	nv := buildView(epoch, rt.numNodes, activeIDs)
	rt.view.Store(nv)
	for t := 0; t < rt.numNodes; t++ {
		if !old.active[t] || nv.active[t] {
			continue
		}
		// Slot t just became inactive. Its counters restart from zero for the
		// next runtime to occupy the slot; any broadcast still held on the old
		// counters is force-delivered (its prerequisites were drained by the
		// leave protocol).
		if rt.ord != nil {
			rt.ordFlushRoot(t)
			rt.ord.sent[t].Store(0)
			rt.ord.recv[t].Store(0)
		}
		rt.scrubLocNode(t)
		if t != rt.nodeID {
			rt.sendElastic(PE(t*rt.cfg.PEs), &Message{Kind: mElasticBye, Src: -1,
				Ctl: &elasticByeMsg{From: rt.nodeID}})
		}
	}
	if !nv.active[rt.nodeID] {
		rt.noteRetired(nv)
	}
	if hook := rt.viewHook; hook != nil {
		hook(epoch, append([]bool(nil), nv.active...))
	}
	for _, p := range rt.pes {
		p.mbox.push(&Message{Kind: mElasticRehome, Src: -1, Ctl: &elasticRehomeMsg{Ack: ack}})
	}
}

// ordFlushRoot force-delivers every broadcast held on a root's old counters.
func (rt *Runtime) ordFlushRoot(root int) {
	o := rt.ord
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.holds[root]
	if len(q) == 0 {
		return
	}
	delete(o.holds, root)
	o.holdCount.Add(int32(-len(q)))
	for _, h := range q {
		rt.deliverTreeInner(h.inner, h.release, h.owned)
	}
}

// scrubLocNode drops location-cache hints pointing at a deactivated node;
// routing falls back to the (rehomed) authoritative home entries.
func (rt *Runtime) scrubLocNode(node int) {
	rt.loc.scrubRange(PE(node*rt.cfg.PEs), PE((node+1)*rt.cfg.PEs))
}

// noteRetired records, on a node that just became inactive, which members
// still owe it a goodbye before it may tear down its transport.
func (rt *Runtime) noteRetired(v *memberView) {
	rt.byeMu.Lock()
	if rt.byeWant == nil {
		rt.byeWant = map[int]bool{}
	}
	for _, n := range v.nodes {
		if n != rt.nodeID && !rt.byeGot[n] {
			rt.byeWant[n] = true
		}
	}
	rt.byeCheckLocked()
	rt.byeMu.Unlock()
}

// byeFrom records one member's goodbye (ingress intercepts mElasticBye;
// goodbyes may arrive before this node has applied its own retirement view,
// since the other members commit first).
func (rt *Runtime) byeFrom(node int) {
	rt.byeMu.Lock()
	if rt.byeGot == nil {
		rt.byeGot = map[int]bool{}
	}
	rt.byeGot[node] = true
	delete(rt.byeWant, node)
	rt.byeCheckLocked()
	rt.byeMu.Unlock()
}

func (rt *Runtime) byeCheckLocked() {
	if rt.byeWant != nil && len(rt.byeWant) == 0 && !rt.byeDone {
		rt.byeDone = true
		close(rt.byeCh)
	}
}

// ---- per-PE handlers ----

// elasticCensus builds this PE's element census (handler for
// mElasticCensus). Pinned collections (singles, groups) contribute their
// records but never their members — they are not drained or rebalanced.
// Output ordering is deterministic: the census drives placement decisions.
func (p *peState) elasticCensus(cm *elasticCensusMsg) {
	rep := &elasticCensusReply{PE: p.pe}
	for cid, coll := range p.colls {
		if cid == mainCID {
			continue
		}
		if cm.WithColls {
			c := *coll.cm
			c.ct = nil
			rep.Colls = append(rep.Colls, elasticCollState{Create: c, Total: coll.total})
		}
		if coll.cm.Kind != ckArray && coll.cm.Kind != ckSparse {
			continue
		}
		for key, el := range coll.elems {
			if el.dead {
				continue
			}
			rep.Elems = append(rep.Elems, elasticElemInfo{
				CID: cid, Key: key,
				Busy: el.liveThreads > 0 || el.atSync || el.migrateTo >= 0,
			})
		}
	}
	sort.Slice(rep.Elems, func(i, j int) bool {
		if rep.Elems[i].CID != rep.Elems[j].CID {
			return rep.Elems[i].CID < rep.Elems[j].CID
		}
		return rep.Elems[i].Key < rep.Elems[j].Key
	})
	sort.Slice(rep.Colls, func(i, j int) bool { return rep.Colls[i].Create.CID < rep.Colls[j].Create.CID })
	p.rt.sendFutureSetRaw(cm.Ack, rep)
}

// elasticInstall installs shipped collection records on a joining PE
// (handler for mElasticState). Groups instantiate their local member (the
// ctor runs with the original creation args, exactly as it would have had
// this node been active at creation); array and sparse collections arrive
// empty and receive elements by migration.
func (p *peState) elasticInstall(sm *elasticStateMsg) {
	for i := range sm.Colls {
		cs := &sm.Colls[i]
		if _, exists := p.colls[cs.Create.CID]; exists {
			continue
		}
		cm := cs.Create
		if cm.Kind != ckGroup {
			cm.NoInit = true
		}
		p.createColl(&cm)
		if coll := p.colls[cm.CID]; coll != nil && cm.Kind == ckSparse && cs.Total > 0 {
			coll.total = cs.Total
		}
	}
	p.rt.sendFutureSetRaw(sm.Ack, nil)
}

// elasticRehome rescans this PE's location state against the just-committed
// view (handler for mElasticRehome): group membership counts are refreshed,
// every hosted migratable element announces itself to its (possibly
// re-delegated) home, authoritative home entries this PE no longer owns are
// shipped to the new home, and pending-element buffers whose home moved away
// are re-routed.
func (p *peState) elasticRehome(ack FutureRef) {
	rt := p.rt
	for cid, coll := range p.colls {
		if coll.cm.Kind == ckGroup {
			coll.total = rt.activePEs()
		}
		if coll.cm.Kind != ckArray && coll.cm.Kind != ckSparse {
			continue
		}
		for key, el := range coll.elems {
			if el.dead {
				continue
			}
			if home := rt.homePE(cid, key); home != p.pe {
				rt.send(home, &Message{Kind: mLocUpdate, Src: p.pe,
					Ctl: &locUpdateMsg{CID: cid, Idx: el.idx, At: p.pe}})
			} else {
				p.setHomeLoc(cid, key, p.pe)
			}
		}
		for key, pend := range coll.pendingElem {
			if home := rt.homePE(cid, key); home != p.pe {
				delete(coll.pendingElem, key)
				for _, m := range pend {
					rt.send(home, m)
				}
			}
		}
	}
	for cid, locs := range p.homeLoc {
		for key, at := range locs {
			if home := rt.homePE(cid, key); home != p.pe {
				delete(locs, key)
				rt.send(home, &Message{Kind: mLocUpdate, Src: p.pe,
					Ctl: &locUpdateMsg{CID: cid, Idx: keyIdx(key), At: at}})
			}
		}
	}
	if ack.valid() {
		rt.sendFutureSetRaw(ack, nil)
	}
}

// ---- coordinator (node 0) ----

// elasticCtl handles a join/leave request on a node-0 PE scheduler by
// handing it to a coordinator goroutine: the protocol blocks on acks from
// the whole cluster, which a scheduler must never do.
func (p *peState) elasticCtl(cm *elasticCtlMsg) {
	if p.rt.nodeID != 0 {
		p.rt.sendFutureSetRaw(cm.Ack, "elastic control sent to a non-coordinator node")
		return
	}
	go p.rt.runElasticCtl(cm)
}

// runElasticCtl serializes membership transitions: one join or leave at a
// time, cluster-wide.
func (rt *Runtime) runElasticCtl(cm *elasticCtlMsg) {
	rt.elMu.Lock()
	defer rt.elMu.Unlock()
	var res string
	switch cm.Op {
	case elOpJoin:
		res = rt.elasticAdmit(cm.Node)
	case elOpLeave:
		res = rt.elasticRetire(cm.Node)
	default:
		res = fmt.Sprintf("unknown elastic op %d", cm.Op)
	}
	rt.sendFutureSetRaw(cm.Ack, res)
}

// elTimeout bounds each coordinator wait on cluster acks.
const elTimeout = 30 * time.Second

func (rt *Runtime) awaitExt(ref FutureRef, ch <-chan any, what string) (any, string) {
	select {
	case v := <-ch:
		return v, ""
	case <-time.After(elTimeout):
		rt.DropExtFuture(ref)
		return nil, "timeout waiting for " + what
	case <-rt.done:
		rt.DropExtFuture(ref)
		return nil, "job exited during " + what
	}
}

// censusPEs polls the given PEs and returns their census replies, sorted by
// PE.
func (rt *Runtime) censusPEs(pes []PE, withColls bool) ([]*elasticCensusReply, string) {
	ref, ch := rt.NewExtFuture(len(pes))
	for _, pe := range pes {
		rt.sendElastic(pe, &Message{Kind: mElasticCensus, Src: -1,
			Ctl: &elasticCensusMsg{WithColls: withColls, Ack: ref}})
	}
	v, errs := rt.awaitExt(ref, ch, "element census")
	if errs != "" {
		return nil, errs
	}
	var vals []any
	if len(pes) == 1 {
		vals = []any{v}
	} else {
		vals = v.([]any)
	}
	out := make([]*elasticCensusReply, 0, len(vals))
	for _, x := range vals {
		if rep, ok := x.(*elasticCensusReply); ok {
			out = append(out, rep)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PE < out[j].PE })
	return out, ""
}

// commitView runs the ordered view commit: apply locally first (the
// coordinator must route under the new view before anyone else acts on it),
// then commit to every other involved node with the node whose membership
// changed last, and wait until every PE of every committed node has finished
// its rehome pass.
func (rt *Runtime) commitView(epoch int64, activeIDs []int, last int) string {
	commitNodes := map[int]bool{rt.nodeID: true, last: true}
	if v := rt.view.Load(); v != nil {
		for _, n := range v.nodes {
			commitNodes[n] = true
		}
	}
	for _, n := range activeIDs {
		commitNodes[n] = true
	}
	ref, ch := rt.NewExtFuture(len(commitNodes) * rt.cfg.PEs)
	rt.applyView(epoch, activeIDs, ref)
	var order []int
	for n := range commitNodes {
		if n != rt.nodeID && n != last {
			order = append(order, n)
		}
	}
	sort.Ints(order)
	if last != rt.nodeID {
		order = append(order, last)
	}
	vm := &elasticViewMsg{Epoch: epoch, Active: activeIDs, Ack: ref}
	for _, n := range order {
		rt.sendElastic(PE(n*rt.cfg.PEs), &Message{Kind: mElasticView, Src: -1, Ctl: vm})
	}
	if _, errs := rt.awaitExt(ref, ch, "view commit"); errs != "" {
		return errs
	}
	return ""
}

// elasticAdmit runs the join protocol for node j on the coordinator:
// validate, collect the cluster's collection records, install them on every
// joiner PE, commit the widened view (joiner last), then rebalance a
// proportional share of every migratable collection onto the joiner.
func (rt *Runtime) elasticAdmit(j int) string {
	v := rt.view.Load()
	if v == nil {
		return "runtime is not in elastic mode"
	}
	if j <= 0 || j >= rt.numNodes {
		return fmt.Sprintf("node %d outside the provisioned width %d", j, rt.numNodes)
	}
	if v.active[j] {
		return fmt.Sprintf("node %d is already active", j)
	}
	if hook := rt.admitHook; hook != nil {
		if err := hook(j); err != nil {
			return "join rejected: " + err.Error()
		}
	}
	reps, errs := rt.censusPEs([]PE{rt.basePE}, true)
	if errs != "" {
		return errs
	}
	if len(reps) == 0 {
		return "empty census from the coordinator PE"
	}
	ref, ch := rt.NewExtFuture(rt.cfg.PEs)
	sm := &elasticStateMsg{Colls: reps[0].Colls, Ack: ref}
	for i := 0; i < rt.cfg.PEs; i++ {
		rt.sendElastic(PE(j*rt.cfg.PEs+i), &Message{Kind: mElasticState, Src: -1, Ctl: sm})
	}
	if _, errs = rt.awaitExt(ref, ch, "joiner state install"); errs != "" {
		return errs
	}
	activeIDs := append(append([]int(nil), v.nodes...), j)
	sort.Ints(activeIDs)
	if errs = rt.commitView(v.epoch+1, activeIDs, j); errs != "" {
		return errs
	}
	return rt.rebalanceToward(j)
}

// rebalanceToward censuses the active cluster and orders enough element
// moves onto the given node's PEs to level per-PE element counts. The
// census already excludes pinned collections.
func (rt *Runtime) rebalanceToward(j int) string {
	nv := rt.view.Load()
	var pes []PE
	for _, n := range nv.nodes {
		for i := 0; i < rt.cfg.PEs; i++ {
			pes = append(pes, PE(n*rt.cfg.PEs+i))
		}
	}
	reps, errs := rt.censusPEs(pes, false)
	if errs != "" {
		return errs
	}
	count := map[PE]int{}
	byColl := map[CID][]elasticElemInfo{}
	at := map[CID]map[string]PE{}
	for _, rep := range reps {
		count[rep.PE] = len(rep.Elems)
		for _, e := range rep.Elems {
			byColl[e.CID] = append(byColl[e.CID], e)
			if at[e.CID] == nil {
				at[e.CID] = map[string]PE{}
			}
			at[e.CID][e.Key] = rep.PE
		}
	}
	total := 0
	for _, c := range count {
		total += c
	}
	if total == 0 {
		return ""
	}
	target := (total + len(pes) - 1) / len(pes) // joiner PEs fill to the mean
	var cids []CID
	for cid := range byColl {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(a, b int) bool { return cids[a] < cids[b] })
	moves := map[CID]map[string]PE{}
	lo, hi := PE(j*rt.cfg.PEs), PE((j+1)*rt.cfg.PEs)
	dst := lo
	for _, cid := range cids {
		for _, e := range byColl[cid] {
			src := at[cid][e.Key]
			if src >= lo && src < hi {
				continue
			}
			if count[src] <= target || count[dst] >= target {
				continue
			}
			if moves[cid] == nil {
				moves[cid] = map[string]PE{}
			}
			moves[cid][e.Key] = dst
			count[src]--
			count[dst]++
			if count[dst] >= target {
				if dst++; dst >= hi {
					dst = lo
				}
			}
		}
	}
	rt.forceMoves(moves)
	return ""
}

// elasticRetire runs the leave protocol for node l on the coordinator:
// drain the leaver's elements onto the remaining members, then commit the
// narrowed view with the leaver last, so it keeps forwarding strays until
// everyone routes around it.
func (rt *Runtime) elasticRetire(l int) string {
	v := rt.view.Load()
	if v == nil {
		return "runtime is not in elastic mode"
	}
	if l == 0 {
		return "node 0 (the coordinator) cannot leave"
	}
	if l < 0 || l >= rt.numNodes || !v.active[l] {
		return fmt.Sprintf("node %d is not an active member", l)
	}
	if len(v.nodes) <= 1 {
		return "cannot retire the last node"
	}
	var leaverPEs, restPEs []PE
	for _, n := range v.nodes {
		for i := 0; i < rt.cfg.PEs; i++ {
			pe := PE(n*rt.cfg.PEs + i)
			if n == l {
				leaverPEs = append(leaverPEs, pe)
			} else {
				restPEs = append(restPEs, pe)
			}
		}
	}
	// Drain: repeatedly census the leaver and order its elements moved onto
	// the remaining PEs round-robin. Busy elements get their migrateTo set
	// and move when their threads drain; the loop polls until the census
	// comes back empty.
	deadline := time.Now().Add(elTimeout)
	rr := 0
	for {
		reps, errs := rt.censusPEs(leaverPEs, false)
		if errs != "" {
			return errs
		}
		moves := map[CID]map[string]PE{}
		n := 0
		for _, rep := range reps {
			for _, e := range rep.Elems {
				n++
				if e.Busy {
					continue // already migrating, or moves when its threads drain
				}
				if moves[e.CID] == nil {
					moves[e.CID] = map[string]PE{}
				}
				moves[e.CID][e.Key] = restPEs[rr%len(restPEs)]
				rr++
			}
		}
		if n == 0 {
			break
		}
		rt.forceMoves(moves)
		if time.Now().After(deadline) {
			return fmt.Sprintf("node %d failed to drain (%d elements stuck)", l, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	activeIDs := make([]int, 0, len(v.nodes)-1)
	for _, n := range v.nodes {
		if n != l {
			activeIDs = append(activeIDs, n)
		}
	}
	return rt.commitView(v.epoch+1, activeIDs, l)
}

// ---- joiner / leaver side ----

var errElasticTimeout = errors.New("core: elastic operation timed out")

// elasticRequest sends a join/leave request to the coordinator and waits for
// its verdict.
func (rt *Runtime) elasticRequest(op uint8, timeout time.Duration) error {
	if !rt.elastic() {
		return errors.New("core: runtime is not in elastic mode (Config.InitialActive)")
	}
	select {
	case <-rt.running:
	case <-time.After(timeout):
		return errElasticTimeout
	}
	ref, ch := rt.NewExtFuture(1)
	rt.sendElastic(0, &Message{Kind: mElasticCtl, Src: -1,
		Ctl: &elasticCtlMsg{Op: op, Node: rt.nodeID, Ack: ref}})
	select {
	case v := <-ch:
		if s, _ := v.(string); s != "" {
			return errors.New("core: " + s)
		}
		return nil
	case <-time.After(timeout):
		rt.DropExtFuture(ref)
		return errElasticTimeout
	case <-rt.done:
		rt.DropExtFuture(ref)
		return errors.New("core: job exited during the elastic request")
	}
}

// ElasticJoin dials this (started, inactive) node into the running cluster:
// node 0 installs the collection metadata on every local PE, commits a view
// that activates this node, and rebalances a share of every migratable
// collection onto it. Blocks until admitted or rejected. Call from any
// goroutine after Start has been launched.
func (rt *Runtime) ElasticJoin(timeout time.Duration) error {
	if rt.nodeActive(rt.nodeID) {
		return errors.New("core: node is already an active member")
	}
	return rt.elasticRequest(elOpJoin, timeout)
}

// ElasticLeave retires this active node: the coordinator drains every
// element off it, then commits a view without it. After ElasticLeave
// returns, call ElasticSettle to wait for the cluster to route around this
// node, then tear down the transport (see internal/elastic.Manager).
func (rt *Runtime) ElasticLeave(timeout time.Duration) error {
	if !rt.nodeActive(rt.nodeID) {
		return errors.New("core: node is not an active member")
	}
	return rt.elasticRequest(elOpLeave, timeout)
}

// ElasticSettle blocks until every remaining member has applied the view
// retiring this node (their goodbyes) and the local mailboxes have stayed
// empty for a quiet window — the point at which the transport can close
// without dropping a message.
func (rt *Runtime) ElasticSettle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	select {
	case <-rt.byeCh:
	case <-time.After(timeout):
		return errors.New("core: timed out waiting for cluster goodbyes")
	case <-rt.done:
		return nil
	}
	quiet := 0
	for quiet < 5 {
		if time.Now().After(deadline) {
			return errors.New("core: mailboxes failed to settle")
		}
		time.Sleep(10 * time.Millisecond)
		if rt.MailboxDepth() > 0 {
			quiet = 0
		} else {
			quiet++
		}
	}
	return nil
}

// elasticInit validates Config.InitialActive and installs the initial view
// (called from NewRuntime when the option is set).
func (rt *Runtime) elasticInit() {
	ids := append([]int(nil), rt.cfg.InitialActive...)
	sort.Ints(ids)
	rt.view.Store(buildView(1, rt.numNodes, ids))
	rt.byeCh = make(chan struct{})
}
