package core

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"charmgo/internal/metrics"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// This file is the runtime half of the observability subsystem (DESIGN.md
// §3.2): the observer, and the end-of-job gather that ships every node's
// trace.Report to node 0 for a job-wide summary and one merged timeline.

// observer is the runtime's one instrumentation seam. It exists only when
// Config.Trace, Config.Metrics or Config.SampleInterval is set, and every
// event site is one `if o := rt.obs; o != nil { o.event(...) }`, so with all
// three off an event costs one predicted branch and nothing else. An event
// fans out to the tracer's ring (tr, nil unless Config.Trace), the
// instruments below and the PE's peStats, which the sampler and the per-PE
// metrics both read. Each count is kept once: the instruments hold only what
// nothing else counts, and the metrics for what the runtime counts anyway
// (MsgCounts, nBackstop, peStats) read it at scrape time. The instruments
// live in Config.Metrics, or in a registry of the observer's own, so no event
// tests them for nil.
type observer struct {
	rt    *Runtime
	tr    *trace.Tracer
	trOff time.Duration // a PE-clock stamp plus trOff is the same instant on tr's clock

	frames, wireBytes     [2]*metrics.Counter // by direction: received, sent
	batchFlushes          *metrics.Counter
	batchBytes, batchMsgs *metrics.Histogram
	decodeHot, decodeGob  *metrics.Counter    // custom-codec invoke/future frames; gob control frames
	dispatch              [2]*metrics.Counter // typed entry-method handles, reflection
	ftSnapshots           *metrics.Counter    // in-memory checkpoint snapshots taken
	ftSnapshotBytes       *metrics.Counter    // bytes of snapshot blobs produced
	collBcasts            *metrics.Counter    // tree broadcasts originated by this node
	collRelays            *metrics.Counter    // tree-broadcast frames relayed to children
	collFrags             *metrics.Counter    // broadcast fragments sent or relayed
	collPartials          *metrics.Counter    // reduction partials merged by tree combiners
}

// The two dispatch paths callEM counts, indexing observer.dispatch.
const (
	dispTyped = iota
	dispReflective
)

// peStats are a PE's cumulative counters behind the sampler and the per-PE
// metrics, kept by the observer's events and read from other goroutines
// (hence atomics).
type peStats struct {
	busy    atomic.Int64 // entry-method nanos, added at EM/segment completion
	ems     atomic.Int64 // entry methods completed
	recvs   atomic.Int64 // messages dequeued
	emStart atomic.Int64 // PE-clock start (peState.stamp) of the in-flight EM; 0 when idle
}

// newObserver builds rt's observer. It runs in NewRuntime once rt.pes exists
// (the per-PE metrics close over the peStates).
func newObserver(rt *Runtime) *observer {
	reg := rt.cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := reg.Counter
	o := &observer{
		rt: rt,
		tr: rt.cfg.Trace,
		frames: [2]*metrics.Counter{c("charmgo_frames_in_total", "transport frames received"),
			c("charmgo_frames_out_total", "transport frames sent")},
		wireBytes: [2]*metrics.Counter{c("charmgo_wire_bytes_in_total", "payload bytes received from other nodes"),
			c("charmgo_wire_bytes_out_total", "payload bytes sent to other nodes")},
		batchFlushes: c("charmgo_batch_flushes_total", "aggregator batches transmitted"),
		batchBytes:   reg.Histogram("charmgo_batch_bytes", "aggregator batch sizes in bytes"),
		batchMsgs:    reg.Histogram("charmgo_batch_msgs", "messages coalesced per aggregator batch"),
		decodeHot:    c("charmgo_decode_hot_total", "inbound frames decoded by the custom codec"),
		decodeGob:    c("charmgo_decode_gob_total", "inbound frames decoded by the gob fallback"),
		dispatch: [2]*metrics.Counter{
			dispTyped:      c("charmgo_dispatch_generated_total", "entry methods dispatched via typed entry-method handles"),
			dispReflective: c("charmgo_dispatch_dynamic_total", "entry methods dispatched via reflective name lookup"),
		},
		ftSnapshots:     c("charmgo_ft_snapshots_total", "in-memory checkpoint snapshots taken by this node"),
		ftSnapshotBytes: c("charmgo_ft_snapshot_bytes_total", "bytes of in-memory checkpoint blobs produced by this node"),
		collBcasts:      c("charmgo_collective_bcasts_total", "spanning-tree broadcasts originated by this node"),
		collRelays:      c("charmgo_collective_relays_total", "tree-broadcast frames relayed to child nodes"),
		collFrags:       c("charmgo_collective_frags_total", "broadcast fragments sent or relayed down the tree"),
		collPartials:    c("charmgo_collective_partials_total", "reduction partials merged by this node's tree combiners"),
	}
	reg.GaugeFunc("charmgo_sends_local_total", "messages delivered within the node",
		func() int64 { l, _ := rt.MsgCounts(); return l })
	reg.GaugeFunc("charmgo_sends_wire_total", "messages sent to other nodes",
		func() int64 { _, w := rt.MsgCounts(); return w })
	reg.GaugeFunc("charmgo_batch_backstop_flushes_total",
		"aggregator batches stranded until the backstop timer transmitted them", rt.nBackstop.Load)
	for i, p := range rt.pes {
		pe := fmt.Sprintf("{pe=%q}", fmt.Sprint(int(rt.basePE)+i))
		reg.GaugeFunc("charmgo_pe_recvs_total"+pe, "messages dequeued by the PE scheduler", p.stats.recvs.Load)
		reg.GaugeFunc("charmgo_pe_ems_total"+pe, "entry methods executed on the PE", p.stats.ems.Load)
		reg.GaugeFunc("charmgo_mailbox_depth"+pe, "messages currently queued in the PE mailbox",
			func() int64 { return int64(p.depth()) })
		if o.tr != nil {
			reg.GaugeFunc("charmgo_trace_dropped_total"+pe, "trace events lost to the PE's ring-buffer overwrites",
				func() int64 {
					if tr := o.tr; tr != nil { // every tracer call sits behind a nil check
						return int64(tr.DroppedByPE(i))
					}
					return 0
				})
		}
	}
	if tr := o.tr; tr != nil {
		o.trOff = rt.t0.Sub(tr.Epoch())
		tr.SetTopology(rt.totalPEs, int(rt.basePE))
		if rt.cfg.TraceGather && rt.numNodes > 1 && rt.nodeID == 0 {
			rt.traceRepCh = make(chan trace.Report, rt.numNodes)
		}
	}
	return o
}

// src is the node-local index of a sending PE, or -1 for one elsewhere or
// none (the tracer's attribution).
func (o *observer) src(pe PE) int {
	if o.rt.isLocal(pe) {
		return int(pe - o.rt.basePE)
	}
	return -1
}

// sent: admit routed m to pe.
func (o *observer) sent(m *Message, pe PE) {
	if tr := o.tr; tr != nil && m.Kind == mInvoke {
		tr.SendTo(o.src(m.Src), int(pe), m.Method, tr.Since(), 0)
	}
}

// enqueue stamps m with its mailbox push time, which recv turns into the
// queue wait. m is only stamped, never kept.
func (o *observer) enqueue(m *Message) {
	if tr := o.tr; tr != nil {
		m.enq = tr.Since()
	}
}

// fanOut is enqueue for a node-level broadcast about to reach n local PEs,
// with one send recorded per PE.
func (o *observer) fanOut(m *Message, n int) {
	if tr := o.tr; tr != nil {
		m.enq = tr.Since()
		if m.Kind == mInvoke {
			src := o.src(m.Src)
			for range n {
				tr.Send(src, m.Method, m.enq, 0)
			}
		}
	}
}

// recv: p dequeued m and is about to handle it.
func (o *observer) recv(p *peState, m *Message) {
	p.stats.recvs.Add(1)
	if tr := o.tr; tr != nil && m.enq != 0 {
		now := tr.Since()
		tr.Recv(p.lpe(), m.Method, now, now-m.enq)
	}
}

// park blocks p on its empty mailbox and records the wait as an idle span.
func (o *observer) park(p *peState) (*Message, bool) {
	tr := o.tr
	if tr == nil {
		return p.mbox.pop()
	}
	at := tr.Since()
	m, ok := p.mbox.pop()
	tr.Idle(p.lpe(), at, tr.Since()-at)
	return m, ok
}

// emBegin: an entry method, or a threaded one's next segment, starts on p at
// PE-clock time start.
func (o *observer) emBegin(p *peState, start time.Duration) { p.stats.emStart.Store(int64(start)) }

// emEnd: the entry method (or segment) begun at start ran for dur; done
// unless it is a threaded segment that suspended.
func (o *observer) emEnd(p *peState, el *element, method string, start, dur time.Duration, done bool) {
	p.stats.emStart.Store(0)
	p.stats.busy.Add(int64(dur))
	if done {
		p.stats.ems.Add(1)
	}
	if tr := o.tr; tr != nil {
		tr.EM(p.lpe(), el.coll.ct.name, method, start+o.trOff, dur)
	}
}

// dispatched counts one entry-method call by dispatch path: dispTyped or
// dispReflective.
func (o *observer) dispatched(path int) { o.dispatch[path].Inc() }

// decoded counts one message decoded from the wire.
func (o *observer) decoded(k msgKind) {
	if k == mInvoke || k == mFutureSet || k == mElasticAck {
		o.decodeHot.Inc()
	} else {
		o.decodeGob.Inc()
	}
}

// frame: a transport frame of bytes went to (out) or came from node.
func (o *observer) frame(out bool, node, bytes int) {
	d := 0
	if out {
		d = 1
	}
	o.frames[d].Inc()
	o.wireBytes[d].Add(int64(bytes))
	if tr := o.tr; tr != nil {
		tr.Frame(out, node, tr.Since(), bytes)
	}
}

// batched: a message of size bytes from src for dest joined a batch.
func (o *observer) batched(src, dest PE, size int) {
	if tr := o.tr; tr != nil {
		tr.Comm(int(src), int(dest), size)
	}
}

// flush: a batch of msgs messages left for node; by names the rule.
func (o *observer) flush(node, size, msgs int, by string) {
	o.batchFlushes.Inc()
	o.batchBytes.Observe(int64(size))
	o.batchMsgs.Observe(int64(msgs))
	if tr := o.tr; tr != nil {
		tr.Flush(node, tr.Since(), size, msgs, by)
	}
}

// bcast: this node originates a broadcast frame of bytes to children. One
// past fragThreshold goes fragment by fragment (frags) instead of as hops.
func (o *observer) bcast(children []int, bytes int) {
	o.collBcasts.Inc()
	if bytes <= fragThreshold {
		o.hops(children, bytes)
	}
}

// relay: this node passes a tree-broadcast frame on to children.
func (o *observer) relay(children []int, bytes int) {
	o.collRelays.Add(int64(len(children)))
	o.hops(children, bytes)
}

func (o *observer) hops(nodes []int, n int) {
	if tr := o.tr; tr != nil {
		for _, c := range nodes {
			tr.TreeHop(c, tr.Since(), n)
		}
	}
}

// frags: fragment idx, of bytes, goes to children.
func (o *observer) frags(children []int, bytes, idx int) {
	o.collFrags.Add(int64(len(children)))
	if tr := o.tr; tr != nil {
		for _, c := range children {
			tr.Frag(c, tr.Since(), bytes, idx)
		}
	}
}

// partial: a tree combiner merged one reduction partial.
func (o *observer) partial() { o.collPartials.Inc() }

// reduction: a reduction of n contributions completed at its root PE p.
func (o *observer) reduction(p *peState, n int) {
	if tr := o.tr; tr != nil {
		tr.Reduction(p.lpe(), tr.Since(), n)
	}
}

func (o *observer) futureSet(p *peState) {
	if tr := o.tr; tr != nil {
		tr.FutureSet(p.lpe(), tr.Since())
	}
}

func (o *observer) quiescence(p *peState) {
	if tr := o.tr; tr != nil {
		tr.QD(p.lpe(), tr.Since())
	}
}

func (o *observer) lbDecision(p *peState, moves int) {
	if tr := o.tr; tr != nil {
		tr.LB(p.lpe(), tr.Since(), moves)
	}
}

func (o *observer) migrateOut(p *peState, to PE, chare string) {
	if tr := o.tr; tr != nil {
		tr.MigrateOut(p.lpe(), int(to), chare, tr.Since())
	}
}

func (o *observer) migrateIn(p *peState, chare string) {
	if tr := o.tr; tr != nil {
		tr.MigrateIn(p.lpe(), chare, tr.Since())
	}
}

func (o *observer) ftSnapshot(bytes int) {
	o.ftSnapshots.Inc()
	o.ftSnapshotBytes.Add(int64(bytes))
}

func (o *observer) recovery(epoch int64) {
	if tr := o.tr; tr != nil {
		tr.Recovery(int(epoch), tr.Since(), 0)
	}
}

// ---- end-of-job trace gather (node reports to node 0) ----

// traceReportMsg carries one node's trace report to node 0 at job exit.
type traceReportMsg struct {
	Report trace.Report
}

// traceGatherTimeout bounds node 0's wait for remote reports
// (Runtime.gatherTimeout; tests shorten it), so a crashed peer cannot wedge
// the exit path.
const traceGatherTimeout = 3 * time.Second

// gatherTraces runs after the node's PEs have drained. Non-zero nodes ship
// their report to node 0; node 0 collects reports from every peer (plus its
// own) into rt.gathered for TraceReports. A gather that gives up says which
// nodes it misses and why, as far as it knows; a report that turns up later
// says so itself (takeTraceReport).
func (rt *Runtime) gatherTraces() error {
	tr := rt.cfg.Trace
	if tr == nil || !rt.cfg.TraceGather || rt.numNodes <= 1 || rt.cfg.Transport == nil {
		return nil
	}
	if rt.nodeID != 0 {
		m := &Message{Kind: mTraceReport, Src: -1, Ctl: &traceReportMsg{Report: tr.Report(rt.nodeID)}}
		rt.ordSentTo(0)
		rt.xmit(0, appendMsg(transport.GetBuf(), -1, m, rt.wt))
		return nil
	}
	rt.gathered = append(rt.gathered, tr.Report(0))
	timeout := rt.gatherTimeout
	deadline := time.After(timeout)
	for len(rt.gathered) < rt.numNodes {
		select {
		case rep := <-rt.traceRepCh:
			rt.gathered = append(rt.gathered, rep)
			continue
		case <-deadline:
		}
		rt.gatherEnd.Store(time.Now().UnixNano())
		var missing []int
		for n := 1; n < rt.numNodes; n++ {
			if !slices.ContainsFunc(rt.gathered, func(r trace.Report) bool { return r.Node == n }) {
				missing = append(missing, n)
			}
		}
		return fmt.Errorf("trace gather: received %d of %d node reports within %v; none from node(s) %v (%d dropped at ingress by the full gather queue)",
			len(rt.gathered), rt.numNodes, timeout, missing, rt.nRepDropped.Load())
	}
	return nil
}

// warn prints a diagnostic nobody is in a position to handle.
func warn(err error) { fmt.Fprintln(os.Stderr, "charmgo:", err) }

// takeTraceReport is ingress's half of the gather: it queues a peer's report
// for gatherTraces, or returns why it could not.
func (rt *Runtime) takeTraceReport(rep trace.Report) error {
	ch := rt.traceRepCh
	if ch == nil {
		return nil // not the gathering node
	}
	if end := rt.gatherEnd.Load(); end != 0 {
		return fmt.Errorf("trace gather: the report from node %d arrived %v after the gather had given up",
			rep.Node, time.Since(time.Unix(0, end)).Round(time.Microsecond))
	}
	select {
	case ch <- rep:
		return nil
	default:
		rt.nRepDropped.Add(1)
		return fmt.Errorf("trace gather: dropped the report from node %d: %d reports are queued already (a duplicate?)",
			rep.Node, cap(ch))
	}
}

// TraceReports returns the job's trace reports: on node 0 of a gathered run,
// one report per node; otherwise this node's own report. Valid after Start
// returns; nil when tracing was off.
func (rt *Runtime) TraceReports() []trace.Report {
	if len(rt.gathered) > 0 {
		return rt.gathered
	}
	if tr := rt.cfg.Trace; tr != nil {
		return []trace.Report{tr.Report(rt.nodeID)}
	}
	return nil
}
