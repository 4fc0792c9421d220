package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"charmgo/internal/transport"
)

// Spanning-tree collectives (paper sections II-F and IV-D). Broadcasts and
// reduction partials travel over a k-ary tree spanned over the job's nodes
// instead of the source looping over every peer: the source sends at most k
// frames, each child relays the still-encoded frame to its own children,
// and reduction partials are merged at every interior node on the way up.
// That bounds any single node's collective work to O(k) while the flat
// scheme serialized O(N) sends at the root — the root bottleneck the
// Charm4Py evaluation shows dominating collective latency at scale.
//
// The tree needs no membership protocol: parent/child relations are pure
// arithmetic on node ranks, re-rooted at the broadcast source so every node
// can act as a root. After a fault-tolerance recovery the surviving nodes
// get fresh contiguous ranks and the tree re-derives itself from the new
// node count.
//
// Relayed frames travel a different path than direct point-to-point
// traffic, so per-link FIFO no longer orders a broadcast behind the
// unicasts its source sent first. Tree broadcasts therefore carry the
// source's per-destination sent-message vector, and each node delays local
// delivery until it has ingressed that many direct messages from the source
// (bcastOrder below). Relaying is never delayed — children make their own
// decision — so fragment pipelining is unaffected.

// defaultTreeArity is the tree fan-out used when Config.TreeArity is 0.
const defaultTreeArity = 4

// Wire destination space (see the frame layout in wire.go): dest >= 0 is a
// PE unicast, -1 a node-local broadcast, -2 a batch frame; -3 and -4 are
// reserved by the fault-tolerance detector (internal/ft) for heartbeat and
// death-notice control frames on the same transport. The collective tree
// claims the values below those.
const (
	// fragDest marks a broadcast fragment frame:
	// [4B LE -5][1B kind][uvarint root][uvarint seq][uvarint idx][uvarint total][chunk].
	fragDest = int32(-5)
	// treeDestBase: dest <= -6 is a tree broadcast rooted at node -6 - dest:
	// [4B LE dest][numNodes uvarints: sent vector][inner -1 frame].
	treeDestBase = int32(-6)
)

// treeDest encodes a tree-broadcast destination word for the given root.
func treeDest(root int) int32 { return treeDestBase - int32(root) }

// treeDestRoot recovers the root node from a tree-broadcast dest word.
func treeDestRoot(dest int32) int { return int(treeDestBase - dest) }

// Large broadcast payloads are split into fragChunk-sized pieces so relays
// can pipeline them down the tree: the first fragment reaches the leaves
// while the source is still transmitting the last one.
const (
	fragChunk     = 64 << 10
	fragThreshold = 128 << 10
)

// treeRel relabels node relative to the tree root: the root becomes rank 0
// and the parent/child arithmetic below applies to the relabeled ranks.
func treeRel(node, root, n int) int { return ((node-root)%n + n) % n }

// treeUnrel maps a relabeled rank back to a real node id.
func treeUnrel(rel, root, n int) int { return (rel + root) % n }

// treeParent returns the parent of node in the k-ary tree of n nodes rooted
// at root, or -1 for the root itself.
func treeParent(node, root, n, k int) int {
	rel := treeRel(node, root, n)
	if rel == 0 {
		return -1
	}
	return treeUnrel((rel-1)/k, root, n)
}

// appendTreeChildren appends node's children in the k-ary tree of n nodes
// rooted at root. With k >= n-1 the tree degenerates to the flat scheme
// (every node a direct child of the root); with n == 1 there are no
// children.
func appendTreeChildren(dst []int, node, root, n, k int) []int {
	rel := treeRel(node, root, n)
	for c := rel*k + 1; c <= rel*k+k && c < n; c++ {
		dst = append(dst, treeUnrel(c, root, n))
	}
	return dst
}

// treeEnabled reports whether collectives run over the spanning tree (a
// negative Config.TreeArity selects the flat O(N) scheme, and single-node
// jobs have no inter-node tree at all).
func (rt *Runtime) treeEnabled() bool { return rt.arity > 0 && rt.numNodes > 1 }

// msgShared is the fan-out record of a broadcast Message delivered to all
// local PEs by pointer (zero-copy local broadcast): the last PE to finish
// handling it runs the release hook, which recycles the pooled reassembly
// buffer of fragmented broadcasts.
type msgShared struct {
	refs    atomic.Int32
	release func()
}

// bcastOrder keeps tree broadcasts causally behind the point-to-point
// traffic their source sent first. sent[n] counts the messages this node
// has addressed to node n in batches (every send through countWire —
// everything the peer's ingress will count into recv[self]); a broadcast
// snapshots the whole vector into its frame, and a receiver holds delivery
// until recv[root] reaches the snapshot's entry for itself. Relays are never
// held.
type bcastOrder struct {
	sent []atomic.Int64
	recv []atomic.Int64

	mu        sync.Mutex
	holdCount atomic.Int32         // fast-path gate: non-zero when holds exist
	holds     map[int][]*heldBcast // root -> FIFO of held broadcasts
}

// heldBcast is one broadcast waiting for earlier direct traffic from its
// root. inner is the owned copy of the embedded -1 frame; release recycles
// its backing buffer after the last local PE finishes with the message.
// owned marks buffers the runtime keeps outright (reassembled fragments):
// those decode with aliased []byte arguments and are left to the garbage
// collector.
type heldBcast struct {
	need    int64
	inner   []byte
	release func()
	owned   bool
}

// ordSentTo counts one direct (non-tree) message addressed to a peer node.
func (rt *Runtime) ordSentTo(node int) {
	if o := rt.ord; o != nil {
		o.sent[node].Add(1)
	}
}

// ordRecvFrom counts one direct message ingressed from a peer node. A
// message may only be counted once its local effect is visible — pushed to
// a mailbox, or handled inline — because a count can satisfy a held
// broadcast's threshold and release it ahead of anything still buffered.
// Callers follow up with ordRelease once everything they ingressed is
// visible.
func (rt *Runtime) ordRecvFrom(from int) { rt.ordRecvN(from, 1) }

// ordRecvN counts n direct messages ingressed from a peer node (the batch
// path counts each flush in one step, after the mailbox pushes).
func (rt *Runtime) ordRecvN(from, n int) {
	if o := rt.ord; o != nil && from >= 0 && from < len(o.recv) {
		o.recv[from].Add(int64(n))
	}
}

// ordRelease delivers any held broadcasts that the receives counted so far
// unblock. Separate from the counting so batched messages reach the
// mailboxes before a release can enqueue a broadcast behind them.
func (rt *Runtime) ordRelease(from int) {
	o := rt.ord
	if o == nil || from < 0 || from >= len(o.recv) {
		return
	}
	if o.holdCount.Load() != 0 {
		rt.releaseHolds(from)
	}
}

// releaseHolds delivers the head run of root's hold queue whose thresholds
// are now met. Delivery happens under the hold lock so concurrent transport
// pumps cannot reorder released broadcasts.
func (rt *Runtime) releaseHolds(root int) {
	o := rt.ord
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.holds[root]
	have := o.recv[root].Load()
	for len(q) > 0 && q[0].need <= have {
		h := q[0]
		q = q[1:]
		o.holdCount.Add(-1)
		rt.deliverTreeInner(h.inner, h.release, h.owned)
	}
	if len(q) == 0 {
		delete(o.holds, root)
	} else {
		o.holds[root] = q
	}
}

// holdOrDeliver applies the causal check to a tree broadcast addressed to
// this node: deliver now when all earlier direct traffic from root has been
// ingressed (and nothing older is still held), otherwise queue it. inner
// must remain valid until delivery; release (may be nil) runs after the
// last local PE finishes with it. copyInner asks for an owned copy (the
// transport reclaims SendBuf frames when the handler returns); owned marks
// a buffer the runtime keeps outright, safe for aliased decoding.
func (rt *Runtime) holdOrDeliver(root int, need int64, inner []byte, release func(), copyInner, owned bool) {
	o := rt.ord
	if o == nil {
		rt.deliverTreeInner(inner, release, owned)
		return
	}
	o.mu.Lock()
	if o.recv[root].Load() >= need && len(o.holds[root]) == 0 {
		defer o.mu.Unlock()
		rt.deliverTreeInner(inner, release, owned)
		return
	}
	if copyInner {
		buf := append(transport.GetBuf(), inner...)
		inner = buf[transport.PrefixLen:]
		release = func() { transport.PutBuf(buf) }
	}
	o.holds[root] = append(o.holds[root], &heldBcast{need: need, inner: inner, release: release, owned: owned})
	o.holdCount.Add(1)
	o.mu.Unlock()
}

// deliverTreeInner decodes the embedded -1 frame of a tree broadcast and
// fans it out to the local PEs as one shared message. Owned buffers
// (reassembled fragments) decode with their []byte arguments aliasing the
// buffer — the node's only copy of a large payload is the reassembly itself.
func (rt *Runtime) deliverTreeInner(inner []byte, release func(), owned bool) {
	_, m, err := rt.decodeFrame(inner, owned, nil)
	if err != nil {
		panic(fmt.Sprintf("core: bad tree-broadcast payload: %v", err))
	}
	rt.rebindMsg(m)
	rt.deliverAllLocalShared(m, release)
	qdDone(rt.counts(-1), m.Kind) // the frame, its per-PE deliveries counted
}

// bcastTree transmits a broadcast originating at this node to its children
// in the tree rooted here. The message is encoded once; children receive
// byte-identical frames (the last child takes the original buffer, earlier
// ones pooled copies) and relay them without re-serializing.
func (rt *Runtime) bcastTree(m *Message) {
	var cbuf [8]int
	children := rt.viewChildren(cbuf[:0], rt.nodeID)
	if len(children) == 0 {
		return
	}
	rt.nBcastSends.Add(int64(len(children)))
	if met := rt.met; met != nil {
		met.collBcasts.Inc()
	}
	td := treeDest(rt.nodeID)
	frame := transport.GetBuf()
	frame = binary.LittleEndian.AppendUint32(frame, uint32(td))
	for n := 0; n < rt.numNodes; n++ {
		frame = binary.AppendUvarint(frame, uint64(rt.ord.sent[n].Load()))
	}
	frame = appendMsg(frame, -1, m, rt.wt)
	body := frame[transport.PrefixLen:]
	if len(body) > fragThreshold {
		rt.bcastFragments(children, body, m.Kind, rt.nodeID)
		transport.PutBuf(frame)
		return
	}
	rt.qdSent(m.Src, m.Kind, len(children)) // the frames themselves, done at each child's delivery
	if tr := rt.cfg.Trace; tr != nil {
		for _, c := range children {
			tr.TreeHop(c, tr.Since(), len(body))
		}
	}
	rt.xmitShared(children, frame)
}

// onTreeBcast handles an inbound tree-broadcast frame (starting at the dest
// word): relay it to this node's children first — their sends are counted
// before our own receive, and relaying never waits on the causal hold —
// then hold-or-deliver locally.
func (rt *Runtime) onTreeBcast(from int, frame []byte) {
	root := treeDestRoot(int32(binary.LittleEndian.Uint32(frame)))
	if root < 0 || root >= rt.numNodes {
		panic(fmt.Sprintf("core: bad tree-broadcast root %d from node %d", root, from))
	}
	need, inner, err := splitTreeFrame(frame, rt.numNodes, rt.nodeID)
	if err != nil {
		panic(fmt.Sprintf("core: bad tree-broadcast frame from node %d: %v", from, err))
	}
	rt.relayTree(root, frame, msgKind(inner[4]))
	rt.holdOrDeliver(root, need, inner, nil, true, false)
}

// splitTreeFrame parses a tree-broadcast frame into this node's causal
// threshold and the embedded -1 frame.
func splitTreeFrame(frame []byte, numNodes, nodeID int) (need int64, inner []byte, err error) {
	r := &reader{b: frame[4:]}
	for n := 0; n < numNodes; n++ {
		v := r.uvarint()
		if n == nodeID {
			need = int64(v)
		}
	}
	rest := r.rest()
	if r.err != nil || len(rest) < 5 {
		return 0, nil, fmt.Errorf("truncated sent vector")
	}
	return need, rest, nil
}

// relayTree forwards a still-encoded tree-broadcast frame (as received,
// starting at the dest word) to this node's children without decoding or
// re-serializing it: one copy to own the handler-scoped frame, shared
// across all children.
func (rt *Runtime) relayTree(root int, frame []byte, kind msgKind) {
	var cbuf [8]int
	children := rt.viewChildren(cbuf[:0], root)
	if len(children) == 0 {
		return
	}
	rt.qdSent(-1, kind, len(children))
	tr := rt.cfg.Trace
	for _, c := range children {
		if met := rt.met; met != nil {
			met.collRelays.Inc()
		}
		if tr != nil {
			tr.TreeHop(c, tr.Since(), len(frame))
		}
	}
	rt.xmitShared(children, append(transport.GetBuf(), frame...))
}

// bcastFragments splits an encoded tree-broadcast frame (body: dest word
// onward) into fragChunk pieces and sends each piece to every child as it
// is cut, pipelining the payload down the tree. The kind byte rides in each
// fragment header so relays can keep quiescence accounting per fragment
// without decoding the payload.
func (rt *Runtime) bcastFragments(children []int, body []byte, kind msgKind, root int) {
	seq := rt.bcastSeq.Add(1)
	total := (len(body) + fragChunk - 1) / fragChunk
	tr := rt.cfg.Trace
	for i := 0; i < total; i++ {
		chunk := body[i*fragChunk:]
		if len(chunk) > fragChunk {
			chunk = chunk[:fragChunk]
		}
		rt.qdSent(-1, kind, len(children))
		for _, c := range children {
			if met := rt.met; met != nil {
				met.collFrags.Inc()
			}
			if tr != nil {
				tr.Frag(c, tr.Since(), len(chunk), i)
			}
		}
		d := fragDest
		buf := transport.GetBuf()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
		buf = append(buf, byte(kind))
		buf = binary.AppendUvarint(buf, uint64(root))
		buf = binary.AppendUvarint(buf, seq)
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = binary.AppendUvarint(buf, uint64(total))
		buf = append(buf, chunk...)
		rt.xmitShared(children, buf)
	}
}

// fragKey identifies one in-flight fragmented broadcast: the originating
// root plus its per-root sequence number.
type fragKey struct {
	root int
	seq  uint64
}

// fragAsm accumulates the fragments of one broadcast into an exact-size
// buffer the runtime keeps outright (the decoded message's byte-slice
// arguments alias it, so it is left to the garbage collector rather than
// recycled). Links are FIFO, so fragments arrive in index order; next tracks
// the only index we will accept.
type fragAsm struct {
	buf  []byte
	next int
}

// onFragment handles one inbound broadcast fragment: relay it to this
// node's children first (pipelining — fragment i moves down the tree while
// i+1 is still in flight upstream, and send counts stay ahead of receive
// counts for the quiescence detector), then append it to the reassembly
// buffer and hand the rebuilt tree-broadcast frame to the causal
// hold-or-deliver path when the last fragment lands.
func (rt *Runtime) onFragment(from int, frame []byte) {
	body := frame[4:]
	if len(body) < 1 {
		panic(fmt.Sprintf("core: truncated fragment frame from node %d", from))
	}
	kind := msgKind(body[0])
	r := &reader{b: body[1:]}
	root := int(r.uvarint())
	seq := r.uvarint()
	idx := int(r.uvarint())
	total := int(r.uvarint())
	if r.err != nil || root < 0 || root >= rt.numNodes || total <= 0 || idx < 0 || idx >= total {
		panic(fmt.Sprintf("core: bad fragment header from node %d", from))
	}
	chunk := r.rest()
	rt.relayFragment(frame, kind, root, idx, len(chunk))
	key := fragKey{root: root, seq: seq}
	rt.fragMu.Lock()
	asm := rt.frags[key]
	if asm == nil {
		// Size the reassembly buffer for the whole broadcast up front
		// (total is in every fragment header); growing it chunk by chunk
		// re-copies the accumulated payload on every expansion, which
		// dominates large-broadcast latency.
		asm = &fragAsm{buf: make([]byte, 0, total*fragChunk)}
		rt.frags[key] = asm
	}
	if idx != asm.next {
		rt.fragMu.Unlock()
		panic(fmt.Sprintf("core: fragment %d/%d of broadcast %d/%d arrived out of order (want %d)",
			idx, total, root, seq, asm.next))
	}
	asm.buf = append(asm.buf, chunk...)
	asm.next++
	done := asm.next == total
	if done {
		delete(rt.frags, key)
	}
	rt.fragMu.Unlock()
	if !done {
		// Per-fragment receive, matching the sender's per-fragment send
		// counts; the completing fragment is counted at delivery instead, so
		// the quiescence detector sees the broadcast in flight until it is
		// actually handed to the local PEs.
		qdDone(rt.counts(-1), kind)
		return
	}
	need, inner, err := splitTreeFrame(asm.buf, rt.numNodes, rt.nodeID)
	if err != nil {
		panic(fmt.Sprintf("core: bad reassembled broadcast from node %d: %v", root, err))
	}
	rt.holdOrDeliver(root, need, inner, nil, false, true)
}

// relayFragment forwards one fragment frame to the children of this node in
// the tree rooted at root: one copy to own the handler-scoped frame, shared
// across all children.
func (rt *Runtime) relayFragment(frame []byte, kind msgKind, root, idx, chunkLen int) {
	var cbuf [8]int
	children := rt.viewChildren(cbuf[:0], root)
	if len(children) == 0 {
		return
	}
	rt.qdSent(-1, kind, len(children))
	tr := rt.cfg.Trace
	for _, c := range children {
		if met := rt.met; met != nil {
			met.collFrags.Inc()
		}
		if tr != nil {
			tr.Frag(c, tr.Since(), chunkLen, idx)
		}
	}
	rt.xmitShared(children, append(transport.GetBuf(), frame...))
}
