package core

import (
	"errors"
	"slices"
)

// Measurement-based dynamic load balancing (paper sections II-J and V-B):
// one protocol, stats → decide → move order, with two triggers.
//
// AtSync rounds (Charm++'s): once all of a PE's elements of a collection
// have called AtSync, the PE sends their loads (entry-method wall time since
// the last round) to the collection's root PE (mLBStats). With all
// coll.total elements in, the root decides (lbDecide) and broadcasts the
// move order (mLBMoves); receiving PEs ack each arrival (mLBAck), and after
// the last ack mLBResume clears sync state and loads and invokes every
// element's ResumeFromSync.
//
// Forced rounds (TriggerLBRound, POST /introspect/lb): same protocol, polled
// trigger, AtSync state untouched. An mLBPoll to the root starts one, the
// root's mLBPoll broadcast asks every active PE for its elements' loads, and
// the root decides once each PE has replied. The move order, like an elastic
// drain's, skips elements at sync and is neither acked nor resumed.
//
// Every LB kind is counted by quiescence detection.

// lbStatsMsg carries one PE's element loads to the collection's root: at an
// AtSync barrier (Seq 0), or answering forced round Seq's poll (every PE does).
type lbStatsMsg struct {
	Seq  int64
	Objs []LBObject
}

// lbMovesMsg is a round's move order: element key -> destination PE.
type lbMovesMsg struct {
	Moves  map[string]PE
	AtSync bool // acked and followed by a resume
}

// lbPollMsg drives a forced round: Seq 0 asks the collection's root to start
// one, and the root's broadcast of the round's Seq asks every PE for stats.
type lbPollMsg struct {
	Seq int64
}

// LBObject describes one migratable element to a load-balancing strategy.
type LBObject struct {
	Key  string  // element index key
	PE   PE      // current location
	Load float64 // measured wall-clock seconds since last LB round
}

// lbRootState is a collection's LB state on its root PE (localColl.lb).
type lbRootState struct {
	sync    []LBObject // the AtSync round's stats so far
	pending int        // the AtSync round's outstanding migration acks
	polling bool       // a forced round is in flight
	seq     int64      // forced rounds started; the one in flight if polling
	polled  []LBObject // its stats so far
	replies int        // PEs that have answered its poll
}

// lbObjs lists the loads of this PE's elements of coll.
func (p *peState) lbObjs(coll *localColl) []LBObject {
	objs := make([]LBObject, 0, len(coll.elems))
	for _, el := range coll.elems {
		if !el.dead {
			objs = append(objs, LBObject{Key: el.key, PE: p.pe, Load: el.load.Seconds()})
		}
	}
	return objs
}

// lbMaybeSendStats sends the root the loads of this PE's elements of the
// collection not yet reported this round, once every local element has
// reached AtSync. An element that arrives after the PE reported (a forced
// round's or a drain's move) is reported when it reaches AtSync itself.
func (p *peState) lbMaybeSendStats(coll *localColl) {
	var objs []LBObject
	for _, el := range coll.elems {
		if !el.atSync {
			return
		}
		if !el.lbReported && !el.dead {
			objs = append(objs, LBObject{Key: el.key, PE: p.pe, Load: el.load.Seconds()})
		}
	}
	if len(objs) == 0 {
		return
	}
	for _, el := range coll.elems {
		el.lbReported = true
	}
	cid := collCID(coll)
	p.rt.send(rootPE(p.rt, cid), &Message{Kind: mLBStats, CID: cid, Src: p.pe,
		Ctl: &lbStatsMsg{Objs: objs}})
}

// lbRootStats accumulates a round's stats at the collection's root and
// decides once the round is complete: an AtSync round on coll.total
// elements, a forced one on a reply from every active PE.
func (p *peState) lbRootStats(m *Message) {
	coll := p.colls[m.CID]
	if coll == nil {
		p.pendingColl[m.CID] = append(p.pendingColl[m.CID], m)
		return
	}
	sm, st := m.Ctl.(*lbStatsMsg), &coll.lb
	if sm.Seq != 0 {
		if !st.polling || sm.Seq != st.seq {
			return // a straggler from an earlier round
		}
		st.polled = append(st.polled, sm.Objs...)
		if st.replies++; st.replies < p.rt.activePEs() {
			return
		}
		moves := p.lbDecide(st.polled)
		st.polling, st.polled, st.replies = false, nil, 0
		if len(moves) > 0 {
			p.rt.bcastAllPEs(&Message{Kind: mLBMoves, CID: m.CID, Src: p.pe, Ctl: &lbMovesMsg{Moves: moves}})
		}
		return
	}
	if st.sync = append(st.sync, sm.Objs...); coll.total < 0 || len(st.sync) < coll.total {
		return
	}
	moves := p.lbDecide(st.sync)
	st.sync, st.pending = nil, len(moves)
	if len(moves) == 0 {
		p.rt.bcastAllPEs(&Message{Kind: mLBResume, CID: m.CID, Src: p.pe})
		return
	}
	p.rt.bcastAllPEs(&Message{Kind: mLBMoves, CID: m.CID, Src: p.pe, Ctl: &lbMovesMsg{Moves: moves, AtSync: true}})
}

// lbDecide runs Config.LB over a round's stats and returns the moves that
// change an element's PE. The strategy numbers the n active PEs [0, n), so
// the objects' PEs are mapped onto that range and its answer back.
func (p *peState) lbDecide(objs []LBObject) map[string]PE {
	moves := map[string]PE{}
	if strat := p.rt.cfg.LB; strat != nil {
		pes := p.rt.ActivePEList()
		slot := make(map[PE]PE, len(pes))
		for i, pe := range pes {
			slot[pe] = PE(i)
		}
		in := make([]LBObject, len(objs))
		for i, o := range objs {
			in[i] = o
			in[i].PE = slot[o.PE]
		}
		assign := strat.Assign(in, len(pes))
		for _, o := range objs {
			if d, ok := assign[o.Key]; ok && pes[d] != o.PE {
				moves[o.Key] = pes[d]
			}
		}
	}
	if o := p.rt.obs; o != nil {
		o.lbDecision(p, len(moves))
	}
	return moves
}

// lbApplyMoves migrates this PE's elements named in a move order. An AtSync
// order moves them now, marked lbMove so that the receiving PE acks the
// root. Any other order skips elements at sync, dead or already migrating,
// and leaves those running threads to recheck, which moves them once the
// threads drain.
func (p *peState) lbApplyMoves(m *Message) {
	coll := p.colls[m.CID]
	if coll == nil {
		return // we host nothing of this collection
	}
	lm := m.Ctl.(*lbMovesMsg)
	var moving []*element
	for key, dest := range lm.Moves {
		el, ok := coll.elems[key]
		if !ok || el.dead || dest == p.pe || !lm.AtSync && (el.atSync || el.migrateTo >= 0) {
			continue
		}
		el.lbMove, el.migrateTo = lm.AtSync, dest
		moving = append(moving, el)
	}
	for _, el := range moving {
		if lm.AtSync || el.liveThreads == 0 {
			p.migrateOut(el)
		}
	}
}

// forceMoves sends a forced move order for each collection in moves, in
// collection order (the elastic drains).
func (rt *Runtime) forceMoves(moves map[CID]map[string]PE) {
	cids := make([]CID, 0, len(moves))
	for cid := range moves {
		cids = append(cids, cid)
	}
	slices.Sort(cids)
	for _, cid := range cids {
		rt.bcastAllPEs(&Message{Kind: mLBMoves, CID: cid, Src: -1, Ctl: &lbMovesMsg{Moves: moves[cid]}})
	}
}

func (p *peState) lbRootAck(cid CID) {
	st := &p.colls[cid].lb
	if st.pending--; st.pending == 0 {
		p.rt.bcastAllPEs(&Message{Kind: mLBResume, CID: cid, Src: p.pe})
	}
}

// lbResume clears sync state and invokes ResumeFromSync on local elements.
func (p *peState) lbResume(cid CID) {
	coll := p.colls[cid]
	if coll == nil {
		return
	}
	els := make([]*element, 0, len(coll.elems))
	for _, el := range coll.elems {
		el.atSync, el.lbReported = false, false
		el.load = 0
		els = append(els, el)
	}
	if !coll.ct.hasResume {
		return
	}
	info := coll.ct.byName["ResumeFromSync"]
	for _, el := range els {
		if el.dead {
			continue
		}
		m := &Message{Kind: mInvoke, CID: cid, Idx: el.idx, MID: info.id, Method: "ResumeFromSync", Src: p.pe}
		p.invokeEMInner(el, info, m)
		p.recheck(el)
	}
}

// ---- forced rounds ----

// ErrNoLBStrategy is returned by TriggerLBRound when Config.LB is nil.
var ErrNoLBStrategy = errors.New("core: no LB strategy configured (Config.LB)")

// TriggerLBRound asks the root PE of every migratable collection (arrays and
// sparse arrays) to run a forced round, and returns the triggered collection
// ids. The elements need not have called AtSync, and no AtSync state, load
// or ResumeFromSync is touched. Safe to call from any goroutine (the HTTP
// handler calls it).
func (rt *Runtime) TriggerLBRound() ([]int32, error) {
	if rt.cfg.LB == nil {
		return nil, ErrNoLBStrategy
	}
	if !rt.started.Load() || rt.exited.Load() {
		return nil, errors.New("core: job is not running")
	}
	var cids []int32
	for cid, cm := range *rt.colls.Load() {
		if cm.Kind != ckArray && cm.Kind != ckSparse {
			continue
		}
		cids = append(cids, int32(cid))
		rt.send(rootPE(rt, cid), &Message{Kind: mLBPoll, CID: cid, Src: -1, Ctl: &lbPollMsg{}})
	}
	slices.Sort(cids)
	return cids, nil
}

// lbPoll handles mLBPoll. At the root, the trigger (Seq 0) starts a forced
// round unless one is in flight; the root's broadcast asks this PE to
// report the loads of its elements of the collection, possibly none.
func (p *peState) lbPoll(m *Message) {
	if seq := m.Ctl.(*lbPollMsg).Seq; seq != 0 {
		var objs []LBObject
		if coll := p.colls[m.CID]; coll != nil {
			objs = p.lbObjs(coll)
		}
		p.rt.send(rootPE(p.rt, m.CID), &Message{Kind: mLBStats, CID: m.CID, Src: p.pe,
			Ctl: &lbStatsMsg{Seq: seq, Objs: objs}})
		return
	}
	coll := p.colls[m.CID]
	if coll == nil {
		p.pendingColl[m.CID] = append(p.pendingColl[m.CID], m)
		return
	}
	st := &coll.lb
	if st.polling {
		return // one forced round per collection at a time
	}
	st.polling = true
	st.seq++
	p.rt.bcastAllPEs(&Message{Kind: mLBPoll, CID: m.CID, Src: p.pe, Ctl: &lbPollMsg{Seq: st.seq}})
}
