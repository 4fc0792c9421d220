package core

import (
	"fmt"
	"os"
	"slices"
	"time"

	"charmgo/internal/metrics"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// This file is the runtime half of the observability subsystem (see
// DESIGN.md): the metrics instruments the hot paths update, and the
// end-of-job trace-gather protocol that ships every node's trace.Report to
// node 0 so it can print a job-wide summary and export one merged timeline.

// rtMetrics bundles the runtime's registered instruments so hot paths pay
// one nil check on rt.met and then plain atomic updates — no registry
// lookups per message.
type rtMetrics struct {
	reg *metrics.Registry

	sendsLocal   *metrics.Counter
	sendsWire    *metrics.Counter
	wireBytesOut *metrics.Counter
	wireBytesIn  *metrics.Counter
	framesOut    *metrics.Counter
	framesIn     *metrics.Counter

	batchFlushes *metrics.Counter
	batchBytes   *metrics.Histogram
	batchMsgs    *metrics.Histogram
	// batchBackstops counts batches that had waited out the whole backstop
	// delay when the timer transmitted them: sends that rules (a)-(c) of the
	// aggregator stranded.
	batchBackstops *metrics.Counter

	decodeHot *metrics.Counter // custom-codec frames (mInvoke/mFutureSet)
	decodeGob *metrics.Counter // gob-fallback control frames

	dispatchStatic    *metrics.Counter
	dispatchDynamic   *metrics.Counter
	dispatchGenerated *metrics.Counter

	peRecvs []*metrics.Counter // per local PE: messages dequeued
	peEMs   []*metrics.Counter // per local PE: entry methods executed

	ftSnapshots     *metrics.Counter // in-memory checkpoint snapshots taken
	ftSnapshotBytes *metrics.Counter // bytes of snapshot blobs produced

	collBcasts   *metrics.Counter // tree broadcasts originated by this node
	collRelays   *metrics.Counter // tree-broadcast frames relayed to children
	collFrags    *metrics.Counter // broadcast fragments sent or relayed
	collPartials *metrics.Counter // reduction partials merged by tree combiners
}

// newRTMetrics registers the runtime's instruments in reg. Must run after
// rt.pes is populated (mailbox-depth gauges close over the peStates).
func newRTMetrics(rt *Runtime, reg *metrics.Registry) *rtMetrics {
	m := &rtMetrics{
		reg:          reg,
		sendsLocal:   reg.Counter("charmgo_sends_local_total", "messages delivered within the node"),
		sendsWire:    reg.Counter("charmgo_sends_wire_total", "messages sent to other nodes"),
		wireBytesOut: reg.Counter("charmgo_wire_bytes_out_total", "payload bytes sent to other nodes"),
		wireBytesIn:  reg.Counter("charmgo_wire_bytes_in_total", "payload bytes received from other nodes"),
		framesOut:    reg.Counter("charmgo_frames_out_total", "transport frames sent"),
		framesIn:     reg.Counter("charmgo_frames_in_total", "transport frames received"),
		batchFlushes: reg.Counter("charmgo_batch_flushes_total", "aggregator batches transmitted"),
		batchBytes:   reg.Histogram("charmgo_batch_bytes", "aggregator batch sizes in bytes"),
		batchMsgs:    reg.Histogram("charmgo_batch_msgs", "messages coalesced per aggregator batch"),
		decodeHot:    reg.Counter("charmgo_decode_hot_total", "inbound frames decoded by the custom codec"),
		decodeGob:    reg.Counter("charmgo_decode_gob_total", "inbound frames decoded by the gob fallback"),
		batchBackstops: reg.Counter("charmgo_batch_backstop_flushes_total",
			"aggregator batches stranded until the backstop timer transmitted them"),
		dispatchStatic: reg.Counter("charmgo_dispatch_static_total",
			"entry methods dispatched via method table / FastDispatcher"),
		dispatchDynamic: reg.Counter("charmgo_dispatch_dynamic_total",
			"entry methods dispatched via reflective name lookup"),
		dispatchGenerated: reg.Counter("charmgo_dispatch_generated_total",
			"entry methods dispatched via generated typed bindings"),
		ftSnapshots: reg.Counter("charmgo_ft_snapshots_total",
			"in-memory checkpoint snapshots taken by this node"),
		ftSnapshotBytes: reg.Counter("charmgo_ft_snapshot_bytes_total",
			"bytes of in-memory checkpoint blobs produced by this node"),
		collBcasts: reg.Counter("charmgo_collective_bcasts_total",
			"spanning-tree broadcasts originated by this node"),
		collRelays: reg.Counter("charmgo_collective_relays_total",
			"tree-broadcast frames relayed to child nodes"),
		collFrags: reg.Counter("charmgo_collective_frags_total",
			"broadcast fragments sent or relayed down the tree"),
		collPartials: reg.Counter("charmgo_collective_partials_total",
			"reduction partials merged by this node's tree combiners"),
	}
	m.peRecvs = make([]*metrics.Counter, len(rt.pes))
	m.peEMs = make([]*metrics.Counter, len(rt.pes))
	for i, p := range rt.pes {
		gpe := int(rt.basePE) + i
		m.peRecvs[i] = reg.Counter(fmt.Sprintf("charmgo_pe_recvs_total{pe=%q}", fmt.Sprint(gpe)),
			"messages dequeued by the PE scheduler")
		m.peEMs[i] = reg.Counter(fmt.Sprintf("charmgo_pe_ems_total{pe=%q}", fmt.Sprint(gpe)),
			"entry methods executed on the PE")
		reg.GaugeFunc(fmt.Sprintf("charmgo_mailbox_depth{pe=%q}", fmt.Sprint(gpe)),
			"messages currently queued in the PE mailbox",
			func() int64 { return int64(p.depth()) })
		if rt.cfg.Trace != nil {
			lpe := i
			reg.GaugeFunc(fmt.Sprintf("charmgo_trace_dropped_total{pe=%q}", fmt.Sprint(gpe)),
				"trace events lost to the PE's ring-buffer overwrites",
				func() int64 {
					if tr := rt.cfg.Trace; tr != nil {
						return int64(tr.DroppedByPE(lpe))
					}
					return 0
				})
		}
	}
	return m
}

// ---- end-of-job trace gather (node reports to node 0) ----

// traceReportMsg carries one node's trace report to node 0 at job exit.
type traceReportMsg struct {
	Report trace.Report
}

// defaultTraceGatherTimeout bounds node 0's wait for remote reports when
// Config.TraceGatherTimeout is unset, so a crashed peer cannot wedge the
// exit path.
const defaultTraceGatherTimeout = 3 * time.Second

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
	timeout := rt.cfg.TraceGatherTimeout
	if timeout <= 0 {
		timeout = defaultTraceGatherTimeout
	}
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
