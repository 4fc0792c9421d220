package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// In-memory double checkpointing and automatic restart, after Charm++'s
// double in-memory checkpoint/restart scheme (Zheng et al.; the fault
// tolerance the paper defers to future work in section VI).
//
// Protocol:
//
//   - Chare.FTCheckpoint (threaded, main chare) quiesces the job (WaitQD),
//     then broadcasts mFTCollect with a fresh epoch number. Every PE
//     serializes its chares with the same element serializer the disk
//     checkpoint uses (collectBundle) and hands the bundle to its node-first
//     PE (mFTBundle), which gob-encodes the node's full snapshot and stores
//     it in Config.FT twice: locally as the "own" copy, and on the buddy
//     node (node+1 mod N, via mFTBlob) as the remote copy. The epoch commits
//     when every node's buddy has acknowledged.
//   - After a node death, the survivors build a fresh (smaller) runtime
//     whose Config.FT still holds the snapshots, and RestartFromMemory
//     elects, for every lost origin, the surviving holder of its blob — the
//     origin itself when it survived, otherwise its buddy — to decode and
//     re-inject the chares (mFTRestore/mFTInject). Elements are re-placed by
//     the restoring job's regular placement rules (initialPE), exactly like
//     the disk Restart shrink-expand path, and the job resumes from the last
//     committed epoch without restarting the process.
//
// Like Charm++'s scheme this tolerates any single node failure (and any
// series of single failures with a committed epoch in between); losing a
// node and its buddy between two commits is unrecoverable and reported as
// an error by RestartFromMemory. Collections of kind Group are tied to the
// PE count and do not survive a shrink meaningfully; keep recoverable state
// in arrays, sparse arrays, or single chares.

// FTStore keeps in-memory checkpoint snapshots across runtime incarnations.
// Implementations must be safe for concurrent use (stores happen on PE
// scheduler goroutines). internal/ft provides the standard one.
type FTStore interface {
	// StoreSnapshot saves one node's blob for an epoch. own distinguishes a
	// node's local copy from the buddy copy it holds for a peer.
	StoreSnapshot(epoch int64, origin, numNodes int, blob []byte, own bool)
	// Holdings lists every snapshot currently held.
	Holdings() []FTHolding
	// Snapshot returns the blob for (origin, epoch), if held.
	Snapshot(origin int, epoch int64) ([]byte, bool)
}

// FTHolding describes one snapshot blob held by an FTStore.
type FTHolding struct {
	Epoch    int64
	Origin   int  // node whose chares the blob contains (pre-failure id)
	NumNodes int  // job width when the snapshot was taken
	Own      bool // the holder is the origin itself
}

// control payloads (see types.go for the kinds)

type ftCollectMsg struct {
	Epoch int64
	Fut   FutureRef // commit future: one ack per node, sent by the buddy
}

type ftBundleMsg struct {
	Epoch  int64
	Fut    FutureRef
	Bundle ckptBundle
}

type ftBlobMsg struct {
	Epoch    int64
	Origin   int
	NumNodes int
	Blob     []byte
	Fut      FutureRef
}

type ftRestoreMsg struct {
	Fut FutureRef
}

// ftHoldingsMsg is one node's reply to mFTRestore (a future value).
type ftHoldingsMsg struct {
	Node     int
	Holdings []FTHolding
}

type ftInjectMsg struct {
	Epoch   int64
	Origins []int
	Fut     FutureRef
}

// ftInjectAck is one injector's reply to mFTInject (a future value).
type ftInjectAck struct {
	MaxCIDSeq int32
	Colls     []createMsg
}

type ftSeqMsg struct {
	Seq int32
}

// ftSnapshot is the gob-encoded per-node blob stored in an FTStore.
type ftSnapshot struct {
	Epoch    int64
	Origin   int
	NumNodes int
	TotalPEs int
	CIDSeq   int32
	Colls    []createMsg
	Elems    []ckptElem
}

// ftGatherState accumulates the local PEs' bundles for one epoch on the
// node-first PE.
type ftGatherState struct {
	fut     FutureRef
	bundles []ckptBundle
}

// FTCheckpoint takes an in-memory double checkpoint of the whole job's chare
// state and blocks until it commits (every node's snapshot acknowledged by
// its buddy), returning the committed epoch number. It must be called from
// the main chare (a threaded entry method); it quiesces the job first, so
// the application only needs to be at a logical step boundary — typically
// right after collecting a reduction. Requires Config.FT on every node.
func (c *Chare) FTCheckpoint() (int64, error) {
	ec := c.ctx()
	rt := ec.p.rt
	if rt.cfg.FT == nil {
		return 0, fmt.Errorf("core: FTCheckpoint requires Config.FT (see internal/ft)")
	}
	c.WaitQD()
	epoch := rt.ftEpoch.Add(1)
	f := ec.p.newFuture(rt.numNodes, true)
	rt.bcastAllPEs(&Message{Kind: mFTCollect, Src: ec.p.pe,
		Ctl: &ftCollectMsg{Epoch: epoch, Fut: f.Ref}})
	f.Get()
	return epoch, nil
}

// ftBundle runs on the node-first PE: collect every local PE's bundle for
// the epoch, then encode and ship the node snapshot.
func (p *peState) ftBundle(bm *ftBundleMsg) {
	if p.ftG == nil {
		p.ftG = map[int64]*ftGatherState{}
	}
	g := p.ftG[bm.Epoch]
	if g == nil {
		g = &ftGatherState{}
		p.ftG[bm.Epoch] = g
	}
	g.fut = bm.Fut
	g.bundles = append(g.bundles, bm.Bundle)
	if len(g.bundles) < p.rt.cfg.PEs {
		return
	}
	delete(p.ftG, bm.Epoch)
	p.ftShip(bm.Epoch, g)
}

// ftShip encodes this node's snapshot, stores the own copy, and sends the
// buddy copy; the buddy's ack commits this node's share of the epoch.
func (p *peState) ftShip(epoch int64, g *ftGatherState) {
	rt := p.rt
	snap := ftSnapshot{Epoch: epoch, Origin: rt.nodeID, NumNodes: rt.numNodes, TotalPEs: rt.totalPEs}
	seen := map[CID]bool{}
	for _, b := range g.bundles {
		if b.CIDSeq > snap.CIDSeq {
			snap.CIDSeq = b.CIDSeq
		}
		for _, cm := range b.Colls {
			if !seen[cm.CID] {
				seen[cm.CID] = true
				snap.Colls = append(snap.Colls, cm)
			}
		}
		snap.Elems = append(snap.Elems, b.Elems...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		panic(fmt.Sprintf("core: encode ft snapshot: %v", err))
	}
	blob := buf.Bytes()
	rt.cfg.FT.StoreSnapshot(epoch, rt.nodeID, rt.numNodes, blob, true)
	if o := rt.obs; o != nil {
		o.ftSnapshot(len(blob))
	}
	if rt.numNodes == 1 {
		rt.sendFutureSet(p, g.fut, nil) // no buddy: self-commit
		return
	}
	buddy := (rt.nodeID + 1) % rt.numNodes
	rt.send(PE(buddy*rt.cfg.PEs), &Message{Kind: mFTBlob, Src: p.pe,
		Ctl: &ftBlobMsg{Epoch: epoch, Origin: rt.nodeID, NumNodes: rt.numNodes, Blob: blob, Fut: g.fut}})
}

// ftBlob runs on the buddy's node-first PE: hold the peer's snapshot and
// acknowledge the commit.
func (p *peState) ftBlob(bm *ftBlobMsg) {
	if st := p.rt.cfg.FT; st != nil {
		st.StoreSnapshot(bm.Epoch, bm.Origin, bm.NumNodes, bm.Blob, false)
	}
	p.rt.sendFutureSet(p, bm.Fut, nil)
}

// ftRestore reports what snapshots this node's store holds.
func (p *peState) ftRestore(rm *ftRestoreMsg) {
	var hs []FTHolding
	if st := p.rt.cfg.FT; st != nil {
		hs = st.Holdings()
	}
	p.rt.sendFutureSet(p, rm.Fut, ftHoldingsMsg{Node: p.rt.nodeID, Holdings: hs})
}

// ftInject decodes the snapshots this node was elected to restore and
// re-injects their chares: collection metadata via idempotent mCreate
// broadcasts (NoInit), elements via the migration machinery, re-placed for
// the surviving job's PE count. The per-destination FIFO of the transport
// orders each injector's creates before its migrates.
func (p *peState) ftInject(im *ftInjectMsg) {
	rt := p.rt
	var ack ftInjectAck
	for _, origin := range im.Origins {
		blob, ok := []byte(nil), false
		if st := rt.cfg.FT; st != nil {
			blob, ok = st.Snapshot(origin, im.Epoch)
		}
		if !ok {
			panic(fmt.Sprintf("core: ft restore: node %d elected for origin %d epoch %d but holds no snapshot",
				rt.nodeID, origin, im.Epoch))
		}
		var snap ftSnapshot
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&snap); err != nil {
			panic(fmt.Sprintf("core: decode ft snapshot (origin %d, epoch %d): %v", origin, im.Epoch, err))
		}
		if snap.CIDSeq > ack.MaxCIDSeq {
			ack.MaxCIDSeq = snap.CIDSeq
		}
		for _, cm := range snap.Colls {
			if cm.CID == mainCID {
				continue
			}
			cmCopy := cm
			cmCopy.NoInit = true
			rt.putCollMeta(&cmCopy)
			rt.bcastAllPEs(&Message{Kind: mCreate, Src: p.pe, Ctl: &cmCopy})
			ack.Colls = append(ack.Colls, cmCopy)
		}
		for _, el := range snap.Elems {
			dest := rt.homePE(el.CID, idxKey(el.Idx))
			if meta := rt.collMeta(el.CID); meta != nil {
				dest = rt.initialPE(meta, el.Idx)
			}
			rt.send(dest, &Message{Kind: mMigrate, CID: el.CID, Src: p.pe,
				Ctl: &migrateMsg{CID: el.CID, Idx: el.Idx, Blob: el.Blob, RedNo: el.RedNo}})
		}
	}
	rt.sendFutureSet(p, im.Fut, ack)
}

// Abort stops this node's scheduling loops without notifying peers and
// without marking the shutdown clean — the teardown half of a failure
// recovery (the failure detector calls it when a peer dies, so Start
// returns and the survivor can rebuild). Safe to call from any goroutine,
// idempotent with respect to Exit.
func (rt *Runtime) Abort() {
	rt.exitFn.Do(rt.localExit)
}

// CleanExit reports whether the job ended through Exit (locally or via a
// peer's exit frame) rather than Abort. Valid after Start returns; the
// recovery driver uses it to tell a finished job from a torn-down one.
func (rt *Runtime) CleanExit() bool { return rt.cleanExit.Load() }

// RestartFromMemory starts a fresh (typically shrunken) runtime and
// restores the job from the in-memory snapshots held in Config.FT, then
// runs entry on the new main chare with proxies to every restored
// collection and the epoch that was restored. It returns an error — after
// tearing the runtime back down — when no complete epoch survives (e.g. a
// node and its buddy died between commits).
func RestartFromMemory(rt *Runtime, entry func(self *Chare, colls map[CID]Proxy, epoch int64)) error {
	if rt.cfg.FT == nil {
		return fmt.Errorf("core: RestartFromMemory requires Config.FT")
	}
	var rerr error
	rt.Start(func(self *Chare) {
		p := self.ctx().p
		// (1) Every surviving node reports its holdings.
		f1 := p.newFuture(rt.numNodes, false)
		for n := 0; n < rt.numNodes; n++ {
			rt.send(PE(n*rt.cfg.PEs), &Message{Kind: mFTRestore, Src: p.pe, Ctl: &ftRestoreMsg{Fut: f1.Ref}})
		}
		reports := futureVals(f1.Get())
		// (2) Pick the newest epoch whose full origin set is held somewhere,
		// electing for each origin its own surviving copy when there is one
		// and its buddy's copy otherwise.
		type holder struct {
			node int
			own  bool
		}
		byEpoch := map[int64]map[int]holder{}
		width := map[int64]int{}
		for _, raw := range reports {
			hm, ok := raw.(ftHoldingsMsg)
			if !ok {
				continue
			}
			for _, h := range hm.Holdings {
				m := byEpoch[h.Epoch]
				if m == nil {
					m = map[int]holder{}
					byEpoch[h.Epoch] = m
				}
				if cur, have := m[h.Origin]; !have || (h.Own && !cur.own) {
					m[h.Origin] = holder{node: hm.Node, own: h.Own}
				}
				if h.NumNodes > width[h.Epoch] {
					width[h.Epoch] = h.NumNodes
				}
			}
		}
		best := int64(-1)
		for ep, m := range byEpoch {
			complete := width[ep] > 0
			for o := 0; o < width[ep]; o++ {
				if _, ok := m[o]; !ok {
					complete = false
					break
				}
			}
			if complete && ep > best {
				best = ep
			}
		}
		if best < 0 {
			rerr = fmt.Errorf("core: ft restore: no complete checkpoint epoch among survivors " +
				"(a node and its buddy lost between commits is unrecoverable)")
			rt.Exit()
			return
		}
		// (3) Order the elected holders to re-inject.
		perNode := map[int][]int{}
		for o, h := range byEpoch[best] {
			perNode[h.node] = append(perNode[h.node], o)
		}
		f2 := p.newFuture(len(perNode), false)
		for n, origins := range perNode {
			sort.Ints(origins)
			rt.send(PE(n*rt.cfg.PEs), &Message{Kind: mFTInject, Src: p.pe,
				Ctl: &ftInjectMsg{Epoch: best, Origins: origins, Fut: f2.Ref}})
		}
		var maxSeq int32
		colls := map[CID]Proxy{}
		for _, raw := range futureVals(f2.Get()) {
			a, ok := raw.(ftInjectAck)
			if !ok {
				continue
			}
			if a.MaxCIDSeq > maxSeq {
				maxSeq = a.MaxCIDSeq
			}
			for _, cm := range a.Colls {
				if _, have := colls[cm.CID]; !have {
					colls[cm.CID] = Proxy{CID: cm.CID, rt: rt, p: p}
				}
			}
		}
		// (4) Quiesce: mMigrate is countable, so once QD settles every
		// re-injected element has been installed (its create is ordered
		// before it per injector link, see ftInject).
		self.WaitQD()
		// (5) Future-proof collection-id allocation against restored cids,
		// then barrier so the bump lands everywhere before entry runs.
		rt.bcastAllPEs(&Message{Kind: mFTSeq, Src: p.pe, Ctl: &ftSeqMsg{Seq: maxSeq}})
		bar := p.newFuture(rt.totalPEs, true)
		for pe := 0; pe < rt.totalPEs; pe++ {
			rt.send(PE(pe), &Message{Kind: mPing, Src: p.pe, Fut: bar.Ref})
		}
		bar.Get()
		// Seed the epoch counter so the next FTCheckpoint commits best+1:
		// epochs stay monotonic across any series of recoveries.
		rt.ftEpoch.Store(best)
		if o := rt.obs; o != nil {
			o.recovery(best)
		}
		entry(self, colls, best)
	})
	return rerr
}

// futureVals normalizes Future.Get's need-dependent return shape.
func futureVals(raw any) []any {
	if vs, ok := raw.([]any); ok {
		return vs
	}
	return []any{raw}
}
