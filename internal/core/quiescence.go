package core

import "sync/atomic"

// Quiescence detection (Charm++: CkStartQD; CharmPy: charm.waitQD()): the
// job is quiescent when no countable message is unfinished. DESIGN.md
// §quiescence has the argument and the table of counting sites. The rule:
//
//   - a message is counted sent before anything can see it;
//   - it is counted done when its handler has returned, so a hop that turns
//     one message into another (ingress forward, tree relay, migration
//     re-send) counts the outgoing one first;
//   - hence sent − done, summed over the job, is the number of unfinished
//     messages at every instant, a running entry method included: the
//     message that started it is not done.
//
// A coordinator (PE 0) polls every node in waves. The counters only grow and
// a wave's reads all precede the next wave's, so done read in one wave equal
// to sent read in the next means the two were equal in between, however the
// reads interleave with traffic. Control traffic is not counted.

// peCounts is one line of message counters, private to a local PE: the one
// named by a message's Src for sends, the one that ran its handler for done.
// The node has one more for every other sender (decoders, external callers,
// timers). Two cache lines, so that adjacent-line prefetch shares none.
type peCounts struct {
	sent, done  atomic.Int64 // countable messages
	local, wire atomic.Int64 // MsgCounts: sends within the node / to other nodes
	runLeft     atomic.Int64 // messages of the run in dispatch not yet handled (pe.go)
	_           [128 - 5*8]byte
}

// counts returns the line for src: its own if it is a local PE, else the node's.
func (rt *Runtime) counts(src PE) *peCounts {
	if i := int(src) - int(rt.basePE); uint(i) < uint(len(rt.pes)) {
		return &rt.cnt[i]
	}
	return &rt.cnt[len(rt.pes)]
}

type qdState struct {
	// coordinator state (PE 0 only; round is read by tests)
	waiters  []Target
	probing  bool
	round    atomic.Int64
	gotNodes int
	sumSent  int64
	sumDone  int64
	prevDone int64
	havePrev bool
}

type qdProbeMsg struct{ Round int64 }

type qdReplyMsg struct {
	Round int64
	Sent  int64
	Done  int64
}

// countableKind reports whether a message kind counts as application
// traffic for quiescence purposes: the kinds whose handlers run user code
// (mCreate runs constructors) or lead to them: an LB round, AtSync or
// forced, ends in migrations, and an AtSync one in ResumeFromSync.
func countableKind(k msgKind) bool {
	switch k {
	case mInvoke, mFutureSet, mRedPartial, mInsert, mMigrate, mDoneInserting, mChanMsg,
		mCreate, mLBStats, mLBMoves, mLBAck, mLBResume, mLBPoll:
		return true
	}
	return false
}

// qdSent counts n messages of kind k from src as sent; qdDone one as done on
// c, the line of whoever ran its handler.
func (rt *Runtime) qdSent(src PE, k msgKind, n int) {
	if countableKind(k) {
		rt.counts(src).sent.Add(int64(n))
	}
}

func qdDone(c *peCounts, k msgKind) {
	if countableKind(k) {
		c.done.Add(1)
	}
}

// StartQD arranges for target (a Target or Future) to be notified once the
// system reaches quiescence (paper/Charm++: CkStartQD). Safe to call from
// any chare.
func (c *Chare) StartQD(target any) {
	var tgt Target
	switch t := target.(type) {
	case Target:
		tgt = t
	case Future:
		tgt = Target{Fut: t.Ref, IsFut: true}
	case *Future:
		tgt = Target{Fut: t.Ref, IsFut: true}
	default:
		panic("core: StartQD target must be a Target or Future")
	}
	ec := c.ctx()
	ec.p.rt.send(0, &Message{Kind: mQDStart, Src: ec.p.pe, Ctl: &qdStartMsg{Target: tgt}})
}

// WaitQD blocks the calling threaded entry method until the system is
// quiescent (paper/CharmPy: charm.waitQD()).
func (c *Chare) WaitQD() {
	f := c.CreateFuture()
	c.StartQD(f)
	f.Get()
}

type qdStartMsg struct{ Target Target }

// coordinator side (runs on PE 0's scheduler)

func (p *peState) qdStart(t Target) {
	qd := &p.rt.qd
	qd.waiters = append(qd.waiters, t)
	if !qd.probing {
		qd.probing = true
		qd.havePrev = false
		p.qdProbe()
	}
}

func (p *peState) qdProbe() {
	qd := &p.rt.qd
	qd.gotNodes = 0
	qd.sumSent = 0
	qd.sumDone = 0
	m := &Message{Kind: mQDProbe, Src: p.pe, Ctl: &qdProbeMsg{Round: qd.round.Add(1)}}
	// one probe per node, handled by the node's first PE (inactive elastic
	// slots would delegate the probe back and double-count their stand-in)
	for n := 0; n < p.rt.numNodes; n++ {
		if !p.rt.nodeActive(n) {
			continue
		}
		p.rt.send(PE(n*p.rt.cfg.PEs), m)
	}
}

// qdOnProbe runs on each node's first PE: reply with the sums of the node's
// counter lines (not a snapshot, and it need not be).
func (p *peState) qdOnProbe(pm *qdProbeMsg) {
	reply := &qdReplyMsg{Round: pm.Round}
	for i := range p.rt.cnt {
		c := &p.rt.cnt[i]
		reply.Sent += c.sent.Load()
		reply.Done += c.done.Load()
	}
	p.rt.send(0, &Message{Kind: mQDReply, Src: p.pe, Ctl: reply})
}

func (p *peState) qdOnReply(rm *qdReplyMsg) {
	qd := &p.rt.qd
	if rm.Round != qd.round.Load() {
		return // stale
	}
	qd.gotNodes++
	qd.sumSent += rm.Sent
	qd.sumDone += rm.Done
	if qd.gotNodes < p.rt.activeNodeCount() {
		return
	}
	// The last wave's done equal to this wave's sent is the condition; this
	// wave's own sums then agree too (nothing has moved), checked for free.
	quiet := qd.havePrev && qd.prevDone == qd.sumSent && qd.sumSent == qd.sumDone
	qd.prevDone = qd.sumDone
	qd.havePrev = true
	if !quiet {
		p.qdProbe()
		return
	}
	if o := p.rt.obs; o != nil {
		o.quiescence(p)
	}
	qd.probing = false
	qd.havePrev = false
	waiters := qd.waiters
	qd.waiters = nil
	for _, t := range waiters {
		p.deliverRedResult(t, nil)
	}
}
