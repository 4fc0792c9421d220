package core

// CCS-style live introspection (DESIGN.md §3.6). When Config.SampleInterval
// is set, each node runs one sampler goroutine that periodically
//
//  1. reads every local PE's cumulative busy/EM/recv atomics (the peStats
//     the observer keeps, observe.go) plus mailbox depth, and
//  2. asks every local PE — by pushing an mIntroSample control message into
//     its mailbox — for a profile of the collections it hosts: element
//     counts and the top-K hottest elements by the same element.load
//     accounting the AtSync load balancer uses (one source of truth).
//
// PE-level stats come from atomics so a PE wedged in a long entry method
// still reports fresh utilization/mailbox numbers; collection state is
// scheduler-owned and therefore sampled message-driven, so a wedged PE's
// collection profile simply rides with the next round it gets to.
//
// Assembled NodeSnapshots flow to node 0 as mIntroReport control frames
// relayed hop-by-hop up the collective spanning tree (tree.go). Node 0
// stores the latest snapshot per node in the introspect.Cluster with a
// receive timestamp; there is no blocking gather anywhere, so a crashed
// peer can never wedge the pipeline — its snapshots just go stale, and the
// FT detector's liveness view (Transport.PeerAlive) marks it dead in the
// served JSON.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"charmgo/internal/introspect"
	"charmgo/internal/metrics"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// introspection control payloads (wire.go registers the cross-node ones).

// introSampleMsg asks a local PE for its collection profile (node-local
// only; never serialized).
type introSampleMsg struct {
	Seq int64
}

// introReportMsg carries one node's snapshot toward node 0.
type introReportMsg struct {
	Snap introspect.NodeSnapshot
}

// sampler is the per-node sampling goroutine plus the round state collecting
// the PEs' message-driven collection profiles.
type sampler struct {
	rt   *Runtime
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	seq       int64
	lastTick  time.Time
	prevBusy  []int64 // per local PE: effective busy nanos at last tick
	prevEMs   []int64
	prevRecvs []int64
	cur       *sampleRound
}

type sampleRound struct {
	snap    introspect.NodeSnapshot
	colls   []introspect.CollSample // raw per-PE profiles, merged at finish
	replies int
}

// sampleTopK bounds the hottest-elements list each collection reports per
// sample.
const sampleTopK = 5

func newSampler(rt *Runtime) *sampler {
	return &sampler{
		rt:        rt,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		lastTick:  time.Now(),
		prevBusy:  make([]int64, rt.cfg.PEs),
		prevEMs:   make([]int64, rt.cfg.PEs),
		prevRecvs: make([]int64, rt.cfg.PEs),
	}
}

func (s *sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.rt.cfg.SampleInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.tick()
		}
	}
}

func (s *sampler) shutdown() {
	close(s.stop)
	<-s.done
}

// tick captures PE-level stats immediately and opens a new round for the
// message-driven collection profiles. A previous round still missing
// replies (a PE stuck in a long entry method) is shipped as-is first —
// sampling never waits on a PE.
func (s *sampler) tick() {
	s.mu.Lock()
	var stale introspect.NodeSnapshot
	shipStale := false
	if s.cur != nil {
		stale, shipStale = s.finishLocked()
	}
	s.cur = &sampleRound{snap: s.sampleLocked(time.Now())}
	s.mu.Unlock()
	if shipStale {
		s.dispatch(stale)
	}
	// Ask each PE for its collection profile; a closed mailbox (shutdown in
	// progress) just means no reply, which the next tick ships around.
	for _, p := range s.rt.pes {
		p.mbox.push(&Message{Kind: mIntroSample, Src: -1, Ctl: &introSampleMsg{Seq: s.seq}})
	}
}

// sampleLocked opens sample s.seq+1: the node's counters now and the PE-level
// stats over the window since the last one. Caller holds s.mu.
func (s *sampler) sampleLocked(now time.Time) introspect.NodeSnapshot {
	rt := s.rt
	s.seq++
	window := now.Sub(s.lastTick)
	s.lastTick = now
	sendsLocal, sendsWire := rt.MsgCounts()
	snap := introspect.NodeSnapshot{
		Node:        rt.nodeID,
		BasePE:      int(rt.basePE),
		Seq:         s.seq,
		UnixNano:    now.UnixNano(),
		WindowNanos: int64(window),
		TotalPEs:    rt.totalPEs,
		SendsLocal:  sendsLocal,
		SendsWire:   sendsWire,
		Backstops:   rt.nBackstop.Load(),
		PEs:         make([]introspect.PESample, len(rt.pes)),
	}
	peNow := int64(now.Sub(rt.t0)) // now on the PE clocks
	for i, p := range rt.pes {
		busy := p.stats.busy.Load()
		// Credit the in-flight entry method so a wedged PE reads 100%, not 0.
		if st := p.stats.emStart.Load(); st != 0 && peNow > st {
			busy += peNow - st
		}
		dBusy := busy - s.prevBusy[i]
		if dBusy < 0 {
			dBusy = 0
		}
		s.prevBusy[i] = busy
		ems := p.stats.ems.Load()
		recvs := p.stats.recvs.Load()
		ps := introspect.PESample{
			PE:           int(rt.basePE) + i,
			BusyNanos:    dBusy,
			EMs:          ems - s.prevEMs[i],
			Recvs:        recvs - s.prevRecvs[i],
			MailboxDepth: p.depth(),
			TotalEMs:     ems,
			TotalRecvs:   recvs,
		}
		s.prevEMs[i] = ems
		s.prevRecvs[i] = recvs
		if window > 0 {
			ps.Util = float64(dBusy) / float64(window)
			if ps.Util > 1 {
				ps.Util = 1
			}
		}
		snap.PEs[i] = ps
	}
	if tr := rt.obs.tr; tr != nil {
		snap.TraceDrops = make([]uint64, len(rt.pes))
		for i := range rt.pes {
			snap.TraceDrops[i] = tr.DroppedByPE(i)
		}
		snap.CommBytes = tr.CommRows(int(rt.basePE), len(rt.pes))
	}
	if reg := rt.cfg.Metrics; reg != nil {
		snap.Admission = admissionSample(reg)
	}
	return snap
}

// admissionSample reads the admission-control instruments out of the node's
// metrics registry, when an admission gate registered them there
// (internal/elastic.NewGate — it lives above the runtime, so core knows the
// gate only by its metric names). Nil when this node hosts no gate.
func admissionSample(reg *metrics.Registry) *introspect.AdmissionSample {
	rej, _ := reg.Lookup("charmgo_admission_rejected_total").(*metrics.Counter)
	del, _ := reg.Lookup("charmgo_admission_delayed_total").(*metrics.Counter)
	dep, _ := reg.Lookup("charmgo_admission_mailbox_depth").(*metrics.Histogram)
	if rej == nil && del == nil && dep == nil {
		return nil
	}
	out := &introspect.AdmissionSample{}
	if rej != nil {
		out.Rejected = rej.Value()
	}
	if del != nil {
		out.Delayed = del.Value()
	}
	if dep != nil {
		out.DepthCount = dep.Count()
		out.DepthP50 = dep.Quantile(0.50)
		out.DepthP99 = dep.Quantile(0.99)
	}
	return out
}

// collReply is called by a PE scheduler handling mIntroSample.
func (s *sampler) collReply(seq int64, colls []introspect.CollSample) {
	s.mu.Lock()
	if s.cur == nil || s.cur.snap.Seq != seq {
		s.mu.Unlock()
		return // reply to an already-shipped round
	}
	s.cur.colls = append(s.cur.colls, colls...)
	s.cur.replies++
	if s.cur.replies < len(s.rt.pes) {
		s.mu.Unlock()
		return
	}
	snap, ok := s.finishLocked()
	s.mu.Unlock()
	if ok {
		s.dispatch(snap)
	}
}

// finishLocked merges the round's per-PE collection profiles into the
// snapshot and clears the round. Caller holds s.mu.
func (s *sampler) finishLocked() (introspect.NodeSnapshot, bool) {
	r := s.cur
	s.cur = nil
	if r == nil {
		return introspect.NodeSnapshot{}, false
	}
	byCID := map[int32]*introspect.CollSample{}
	var order []int32
	for _, cs := range r.colls {
		dst := byCID[cs.CID]
		if dst == nil {
			cp := cs
			byCID[cs.CID] = &cp
			order = append(order, cs.CID)
			continue
		}
		dst.Elems += cs.Elems
		dst.Hot = append(dst.Hot, cs.Hot...)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, cid := range order {
		cs := byCID[cid]
		sort.Slice(cs.Hot, func(i, j int) bool { return cs.Hot[i].LoadMillis > cs.Hot[j].LoadMillis })
		if len(cs.Hot) > sampleTopK {
			cs.Hot = cs.Hot[:sampleTopK]
		}
		r.snap.Colls = append(r.snap.Colls, *cs)
	}
	return r.snap, true
}

// dispatch hands a finished snapshot to the local cluster (node 0 /
// single-node) or ships it toward node 0 up the spanning tree.
func (s *sampler) dispatch(snap introspect.NodeSnapshot) {
	rt := s.rt
	if rt.nodeID == 0 || rt.numNodes <= 1 || rt.cfg.Transport == nil {
		if rt.intro != nil {
			rt.intro.Put(snap)
		}
		return
	}
	if rt.exited.Load() {
		return
	}
	rt.introShipUp(&introReportMsg{Snap: snap})
}

// introShipUp transmits a report frame one hop toward node 0: to this
// node's spanning-tree parent.
func (rt *Runtime) introShipUp(rm *introReportMsg) {
	parent := max(rt.viewParent(0), 0)
	m := &Message{Kind: mIntroReport, Src: -1, Ctl: rm}
	rt.ordSentTo(parent)
	rt.xmit(parent, appendMsg(transport.GetBuf(), -1, m, rt.wt))
}

// introReport handles an inbound mIntroReport at ingress: node 0 stores it,
// interior tree nodes relay it one hop further up.
func (rt *Runtime) introReport(rm *introReportMsg) {
	if rt.nodeID == 0 {
		if rt.intro != nil {
			rt.intro.Put(rm.Snap)
		}
		return
	}
	if rt.exited.Load() {
		return
	}
	rt.introShipUp(rm)
}

// setupIntrospect wires the introspection layer at Start: the cluster holder
// (created here when only SampleInterval was set), the FT liveness view, the
// windowed trace export, the forced-LB trigger, and the sampler itself.
func (rt *Runtime) setupIntrospect() {
	c := rt.cfg.Introspect
	if c == nil {
		c = introspect.NewCluster()
		rt.cfg.Introspect = c
	}
	rt.intro = c
	c.Reset(rt.numNodes, rt.totalPEs, rt.cfg.SampleInterval)
	if pa, ok := rt.cfg.Transport.(interface{ PeerAlive(node int) bool }); ok {
		c.SetLiveness(pa.PeerAlive)
	}
	if rt.cfg.Trace != nil {
		node := rt.nodeID
		c.SetTraceWindow(func(w io.Writer, window time.Duration) error {
			if tr := rt.cfg.Trace; tr != nil {
				return trace.WriteChrome(w, tr.WindowReport(node, window))
			}
			return nil
		})
	}
	c.SetLBTrigger(rt.TriggerLBRound)
	if rt.cfg.SampleInterval > 0 {
		rt.sampler = newSampler(rt)
	}
}

// Introspect returns the runtime's cluster-introspection holder (nil when
// introspection is disabled). On node 0 it carries the whole job's view.
func (rt *Runtime) Introspect() *introspect.Cluster { return rt.intro }

// ---- PE side: collection profiling ----

// introSample handles mIntroSample on the PE scheduler: profile the
// collections this PE hosts and hand the result to the sampler in-process.
// element.load and the collection maps are scheduler-owned, which is exactly
// why this runs as a message instead of a cross-goroutine read.
func (p *peState) introSample(seq int64) {
	s := p.rt.sampler
	if s == nil {
		return
	}
	var out []introspect.CollSample
	for cid, coll := range p.colls {
		if cid == mainCID || coll.ct == nil {
			continue
		}
		cs := introspect.CollSample{
			CID:   int32(cid),
			Type:  coll.ct.name,
			Kind:  collKindName(coll.cm.Kind),
			Elems: len(coll.elems),
		}
		for _, el := range coll.elems {
			load := el.load
			if el.dead || load <= 0 {
				continue
			}
			cs.Hot = append(cs.Hot, introspect.HotElem{
				Index:      append([]int(nil), el.idx...),
				PE:         int(p.pe),
				LoadMillis: float64(load) / float64(time.Millisecond),
			})
		}
		sort.Slice(cs.Hot, func(i, j int) bool { return cs.Hot[i].LoadMillis > cs.Hot[j].LoadMillis })
		if len(cs.Hot) > sampleTopK {
			cs.Hot = cs.Hot[:sampleTopK]
		}
		out = append(out, cs)
	}
	s.collReply(seq, out)
}

func collKindName(k uint8) string {
	switch k {
	case ckSingle:
		return "single"
	case ckGroup:
		return "group"
	case ckArray:
		return "array"
	case ckSparse:
		return "sparse"
	}
	return fmt.Sprint(k)
}
