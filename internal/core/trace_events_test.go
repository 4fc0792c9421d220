package core

// Tests for the full-lifecycle tracing instrumentation: every event kind
// must be recorded exactly once per triggering occurrence, attributed to
// the right (node-local) PE, and the multi-node gather must deliver every
// node's report to node 0.

import (
	"fmt"
	"testing"
	"time"

	"charmgo/internal/metrics"
	"charmgo/internal/trace"
)

// countEvents returns the events of one kind, optionally filtered by method.
func countEvents(evs []trace.Event, kind trace.Kind, method string) []trace.Event {
	var out []trace.Event
	for _, e := range evs {
		if e.Kind == kind && (method == "" || e.Method == method) {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceEMRecvIdleReductionEvents(t *testing.T) {
	tr := trace.New(2)
	runJob(t, Config{PEs: 2, Trace: tr}, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "t")
		f := self.CreateFuture()
		g.Call("SumPE", f)
		if got := f.Get(); got != 1 {
			t.Errorf("reduction = %v, want 1", got)
		}
	})
	evs := tr.Snapshot()

	// One SumPE entry method per PE, exactly once each.
	ems := countEvents(evs, trace.EvEM, "SumPE")
	perPE := map[int]int{}
	for _, e := range ems {
		perPE[e.PE]++
		if e.Chare != "NodeWorker" {
			t.Errorf("EM chare = %q, want NodeWorker", e.Chare)
		}
		if e.Dur < 0 {
			t.Errorf("EM duration negative: %v", e.Dur)
		}
	}
	if len(ems) != 2 || perPE[0] != 1 || perPE[1] != 1 {
		t.Errorf("SumPE EM events per PE = %v, want exactly one on PE 0 and PE 1", perPE)
	}

	// The job performs exactly one reduction; it completes on the root PE 0.
	reds := countEvents(evs, trace.EvReduction, "")
	if len(reds) != 1 || reds[0].PE != 0 {
		t.Errorf("reduction events = %+v, want exactly one on PE 0", reds)
	}
	if reds[0].N != 2 {
		t.Errorf("reduction contributions = %d, want 2", reds[0].N)
	}

	// Exactly one future (the reduction target) became ready, on PE 0.
	futs := countEvents(evs, trace.EvFuture, "")
	if len(futs) != 1 || futs[0].PE != 0 {
		t.Errorf("future events = %+v, want exactly one on PE 0", futs)
	}

	// Every dequeued message carries its queue-wait; sends and idle spans
	// must be present and well-formed.
	recvs := countEvents(evs, trace.EvRecv, "")
	if len(recvs) == 0 {
		t.Error("no EvRecv events recorded")
	}
	for _, e := range recvs {
		if e.PE < 0 || e.PE >= 2 {
			t.Errorf("EvRecv on PE %d, want local PE", e.PE)
		}
		if e.Dur < 0 {
			t.Errorf("negative queue wait %v", e.Dur)
		}
	}
	if n := len(countEvents(evs, trace.EvSend, "SumPE")); n != 2 {
		t.Errorf("SumPE send events = %d, want 2 (one broadcast copy per PE)", n)
	}
	for _, e := range countEvents(evs, trace.EvIdle, "") {
		if e.Dur < 0 {
			t.Errorf("negative idle span %v", e.Dur)
		}
	}
}

func TestTraceFutureAndQDEvents(t *testing.T) {
	tr := trace.New(2)
	runJob(t, Config{PEs: 2, Trace: tr}, func(rt *Runtime) {
		rt.Register(&Mover{})
	}, func(self *Chare) {
		p := self.NewChare(&Mover{}, PE(1))
		if got := p.CallRet("Where").Get(); got != 1 {
			t.Errorf("Where = %v", got)
		}
		self.WaitQD()
	})
	evs := tr.Snapshot()
	// Exactly one quiescence declaration, made by the coordinator (PE 0).
	qds := countEvents(evs, trace.EvQD, "")
	if len(qds) != 1 || qds[0].PE != 0 {
		t.Errorf("QD events = %+v, want exactly one on PE 0", qds)
	}
	// Two futures became ready on PE 0: the CallRet reply and the QD waiter.
	futs := countEvents(evs, trace.EvFuture, "")
	if len(futs) != 2 {
		t.Errorf("future events = %d, want 2", len(futs))
	}
	for _, e := range futs {
		if e.PE != 0 {
			t.Errorf("future ready on PE %d, want 0 (creator)", e.PE)
		}
	}
}

func TestTraceMigrationEvents(t *testing.T) {
	tr := trace.New(2)
	runJob(t, Config{PEs: 2, Trace: tr}, func(rt *Runtime) {
		rt.Register(&Mover{})
	}, func(self *Chare) {
		m := self.NewChare(&Mover{}, PE(0))
		m.Call("Hop", 1)
		if got := m.CallRet("Where").Get(); got != 1 {
			t.Fatalf("chare at %v, want PE 1", got)
		}
	})
	evs := tr.Snapshot()
	outs := countEvents(evs, trace.EvMigrateOut, "")
	ins := countEvents(evs, trace.EvMigrateIn, "")
	if len(outs) != 1 || outs[0].PE != 0 || outs[0].Dest != 1 || outs[0].Chare != "Mover" {
		t.Errorf("migrate-out events = %+v, want exactly one Mover PE 0 -> 1", outs)
	}
	if len(ins) != 1 || ins[0].PE != 1 || ins[0].Chare != "Mover" {
		t.Errorf("migrate-in events = %+v, want exactly one Mover on PE 1", ins)
	}
}

func TestTraceLBEvent(t *testing.T) {
	tr := trace.New(2)
	runJob(t, Config{PEs: 2, Trace: tr, LB: rotateAll{}}, func(rt *Runtime) {
		rt.Register(&LBUnit{})
	}, func(self *Chare) {
		done := self.CreateFuture()
		arr := self.NewArray(&LBUnit{}, []int{2})
		arr.Call("Setup", 1, done)
		done.Get()
	})
	evs := tr.Snapshot()
	// One AtSync round -> one LB decision on the collection's root PE, with
	// rotate-all moving both elements.
	lbs := countEvents(evs, trace.EvLB, "")
	if len(lbs) != 1 || lbs[0].PE != 0 {
		t.Fatalf("LB events = %+v, want exactly one on PE 0", lbs)
	}
	if lbs[0].N != 2 {
		t.Errorf("LB moves = %d, want 2 (rotate-all moves every element)", lbs[0].N)
	}
	if n := len(countEvents(evs, trace.EvMigrateOut, "")); n != 2 {
		t.Errorf("migrate-out events after LB = %d, want 2", n)
	}
}

func TestTraceWireEventsAndGatherMultiNode(t *testing.T) {
	var tracers []*trace.Tracer
	rts := runMultiNode(t, 2, 1, func(cfg *Config) {
		tr := trace.New(cfg.PEs)
		tracers = append(tracers, tr)
		cfg.Trace = tr
		cfg.TraceGather = true
	}, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "w")
		if got := g.At(1).CallRet("Describe").Get(); got != "w@pe1" {
			t.Errorf("Describe = %v", got)
		}
		f := self.CreateFuture()
		g.Call("SumPE", f)
		if got := f.Get(); got != 1 {
			t.Errorf("reduction = %v", got)
		}
	})

	// Transport-frame and aggregator-flush events on node 0 (PE -1 = runtime).
	evs := tracers[0].Snapshot()
	for _, k := range []trace.Kind{trace.EvFrameOut, trace.EvFrameIn, trace.EvFlush} {
		found := countEvents(evs, k, "")
		if len(found) == 0 {
			t.Errorf("no %v events on node 0", k)
			continue
		}
		for _, e := range found {
			if e.PE != -1 {
				t.Errorf("%v event on PE %d, want -1 (runtime track)", k, e.PE)
			}
			if e.Bytes <= 0 {
				t.Errorf("%v event with %d bytes", k, e.Bytes)
			}
		}
	}
	// Flush events carry the batched message count.
	for _, e := range countEvents(evs, trace.EvFlush, "") {
		if e.N <= 0 {
			t.Errorf("flush with %d messages", e.N)
		}
	}
	// Remote deliveries are queue-wait stamped on the receiving node.
	if len(countEvents(tracers[1].Snapshot(), trace.EvRecv, "")) == 0 {
		t.Error("no EvRecv events on node 1")
	}

	// Node 0 gathered both node reports at exit.
	reps := rts[0].TraceReports()
	if len(reps) != 2 {
		t.Fatalf("gathered %d reports, want 2", len(reps))
	}
	nodes := map[int]bool{}
	for _, r := range reps {
		nodes[r.Node] = true
		if r.TotalPEs != 2 {
			t.Errorf("report for node %d has TotalPEs %d, want 2", r.Node, r.TotalPEs)
		}
	}
	if !nodes[0] || !nodes[1] {
		t.Errorf("gathered reports from nodes %v, want 0 and 1", nodes)
	}

	// Both directions of the PE x PE wire matrix saw traffic.
	g := trace.Aggregate(reps)
	n := g.TotalPEs
	if g.CommBytes[0*n+1] <= 0 || g.CommBytes[1*n+0] <= 0 {
		t.Errorf("comm matrix = %v, want bytes both ways", g.CommBytes)
	}
	if g.CommMsgs[0*n+1] <= 0 || g.CommMsgs[1*n+0] <= 0 {
		t.Errorf("comm msg matrix = %v, want messages both ways", g.CommMsgs)
	}
	// The gather itself must not be attributed as application traffic in
	// the utilization summary's send counters for PEs (it is runtime-level).
	if g.TotalPEs != 2 {
		t.Errorf("aggregate TotalPEs = %d, want 2", g.TotalPEs)
	}
}

func TestTraceReportsSingleNode(t *testing.T) {
	tr := trace.New(1)
	rt := runJob(t, Config{PEs: 1, Trace: tr}, func(rt *Runtime) {
		rt.Register(&Mover{})
	}, func(self *Chare) {
		p := self.NewChare(&Mover{}, PE(0))
		if got := p.CallRet("Where").Get(); got != 0 {
			t.Errorf("Where = %v", got)
		}
	})
	reps := rt.TraceReports()
	if len(reps) != 1 || reps[0].Node != 0 {
		t.Fatalf("TraceReports = %+v, want the local node's report", reps)
	}
	if len(reps[0].Events) == 0 {
		t.Error("local report has no events")
	}
}

func TestRuntimeMetricsSingleNode(t *testing.T) {
	reg := metrics.NewRegistry()
	runJob(t, Config{PEs: 2, Metrics: reg}, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "m")
		f := self.CreateFuture()
		g.Call("SumPE", f)
		f.Get()
	})
	// Re-registering returns the live instrument, so values are inspectable.
	if v := metricValue(reg, "charmgo_sends_local_total"); v <= 0 {
		t.Error("charmgo_sends_local_total = 0 after a local job")
	}
	// NodeWorker has no entry-method handles, so even in Compiled mode every
	// call, the main chare's Run included, is dispatched by reflection.
	if v := reg.Counter("charmgo_dispatch_dynamic_total", "").Value(); v == 0 {
		t.Error("charmgo_dispatch_dynamic_total = 0 after a job of unbound chares")
	}
	if v := reg.Counter("charmgo_dispatch_generated_total", "").Value(); v != 0 {
		t.Errorf("charmgo_dispatch_generated_total = %d for unbound chares, want 0", v)
	}
	var recvs int64
	for _, pe := range []string{"0", "1"} {
		recvs += metricValue(reg, "charmgo_pe_recvs_total{pe=\""+pe+"\"}")
	}
	if recvs == 0 {
		t.Error("per-PE recv counters all zero")
	}
}

// metricValue reads an instrument of any kind, or returns -1 when none is
// registered under name.
func metricValue(reg *metrics.Registry, name string) int64 {
	if v, ok := reg.Lookup(name).(interface{ Value() int64 }); ok {
		return v.Value()
	}
	return -1
}

func TestRuntimeMetricsWirePath(t *testing.T) {
	regs := make([]*metrics.Registry, 0, 2)
	runMultiNode(t, 2, 1, func(cfg *Config) {
		reg := metrics.NewRegistry()
		regs = append(regs, reg)
		cfg.Metrics = reg
	}, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "w")
		if got := g.At(1).CallRet("Describe").Get(); got != "w@pe1" {
			t.Errorf("Describe = %v", got)
		}
		f := self.CreateFuture()
		g.Call("SumPE", f)
		f.Get()
	})
	for node, reg := range regs {
		if v := reg.Counter("charmgo_frames_out_total", "").Value(); v == 0 {
			t.Errorf("node %d sent no frames", node)
		}
		if v := reg.Counter("charmgo_wire_bytes_in_total", "").Value(); v == 0 {
			t.Errorf("node %d received no wire bytes", node)
		}
		if v := reg.Counter("charmgo_decode_hot_total", "").Value(); v == 0 {
			t.Errorf("node %d decoded no hot-path messages", node)
		}
	}
	// Aggregation is on by default: flushes must have been counted.
	if v := regs[0].Counter("charmgo_batch_flushes_total", "").Value(); v == 0 {
		t.Error("node 0 recorded no batch flushes")
	}
}

// TestObserversCountOnce runs 2 nodes of 2 PEs with the tracer, the metrics
// registry and the sampler all on, and checks that the registry exports the
// counts the runtime and the sampler read, not copies of them: per PE,
// charmgo_pe_{ems,recvs}_total against the sampler's TotalEMs/TotalRecvs;
// charmgo_sends_{local,wire}_total against MsgCounts and the snapshot's
// sends; charmgo_batch_backstop_flushes_total against the snapshot's
// Backstops. Each is kept in one place, so they agree exactly.
func TestObserversCountOnce(t *testing.T) {
	const nodes, pes = 2, 2
	regs := make([]*metrics.Registry, 0, nodes)
	rts := runMultiNode(t, nodes, pes, func(cfg *Config) {
		reg := metrics.NewRegistry()
		regs = append(regs, reg)
		cfg.Metrics = reg
		cfg.Trace = trace.New(pes)
		cfg.SampleInterval = 5 * time.Millisecond
	}, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "w")
		for i := 0; i < 20; i++ {
			f := self.CreateFuture()
			g.Call("SumPE", f)
			f.Get()
		}
	})
	for n, rt := range rts {
		reg := regs[n]
		rt.sampler.mu.Lock()
		snap := rt.sampler.sampleLocked(time.Now())
		rt.sampler.mu.Unlock()
		local, wire := rt.MsgCounts()
		l, w := metricValue(reg, "charmgo_sends_local_total"), metricValue(reg, "charmgo_sends_wire_total")
		if l != local || w != wire || snap.SendsLocal != local || snap.SendsWire != wire {
			t.Errorf("node %d sends: metrics %d local + %d wire, MsgCounts %d + %d, sampler %d + %d",
				n, l, w, local, wire, snap.SendsLocal, snap.SendsWire)
		}
		if local == 0 || wire == 0 {
			t.Errorf("node %d: %d local and %d wire sends, want both > 0", n, local, wire)
		}
		if b := metricValue(reg, "charmgo_batch_backstop_flushes_total"); b != snap.Backstops || b != rt.nBackstop.Load() {
			t.Errorf("node %d backstops: metric %d, sampler %d, runtime %d", n, b, snap.Backstops, rt.nBackstop.Load())
		}
		for _, ps := range snap.PEs {
			pe := fmt.Sprintf("{pe=%q}", fmt.Sprint(ps.PE))
			ems, recvs := metricValue(reg, "charmgo_pe_ems_total"+pe), metricValue(reg, "charmgo_pe_recvs_total"+pe)
			if ems != ps.TotalEMs || recvs != ps.TotalRecvs {
				t.Errorf("PE %d: metrics %d EMs, %d receives; sampler %d, %d", ps.PE, ems, recvs, ps.TotalEMs, ps.TotalRecvs)
			}
			if ems <= 0 || recvs <= 0 {
				t.Errorf("PE %d: %d EMs, %d receives, want both > 0", ps.PE, ems, recvs)
			}
		}
	}
}
