package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"charmgo/internal/introspect"
	"charmgo/internal/trace"
)

// TestIntrospectSamplingMultiNode runs a 3-node job with continuous sampling
// on and asserts node 0's cluster view ends up covering every node: the
// sampler ticks on each node, per-PE snapshots ship up the spanning tree as
// mIntroReport frames, and node 0's Cluster assembles them.
func TestIntrospectSamplingMultiNode(t *testing.T) {
	const nodes, pes = 3, 2
	var clusters []*introspect.Cluster
	runMultiNode(t, nodes, pes, func(cfg *Config) {
		cfg.SampleInterval = 20 * time.Millisecond
		c := introspect.NewCluster()
		clusters = append(clusters, c)
		cfg.Introspect = c
	}, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "w")
		// No LB strategy configured: the forced-LB trigger must refuse.
		if _, err := self.ctx().p.rt.TriggerLBRound(); !errors.Is(err, ErrNoLBStrategy) {
			t.Errorf("TriggerLBRound without Config.LB = %v, want ErrNoLBStrategy", err)
		}
		// Keep every PE busy long enough for several sample rounds to ship.
		deadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			f := self.CreateFuture()
			g.Call("SumPE", f)
			f.Get()
		}
	})

	s := clusters[0].Snapshot()
	if s.Nodes != nodes || s.TotalPEs != nodes*pes {
		t.Fatalf("cluster shape = %d nodes %d PEs", s.Nodes, s.TotalPEs)
	}
	if s.SampleInterval != 20*time.Millisecond {
		t.Errorf("SampleInterval = %v", s.SampleInterval)
	}
	sawEMs := false
	for i, nv := range s.Node {
		if nv.Missing {
			t.Fatalf("node %d never reported to node 0", i)
		}
		if nv.Node != i || nv.BasePE != i*pes || nv.TotalPEs != nodes*pes {
			t.Errorf("node %d view = node %d basePE %d totalPEs %d", i, nv.Node, nv.BasePE, nv.TotalPEs)
		}
		if nv.Seq <= 0 || nv.WindowNanos <= 0 {
			t.Errorf("node %d: seq %d window %d", i, nv.Seq, nv.WindowNanos)
		}
		if len(nv.PEs) != pes {
			t.Fatalf("node %d: %d PE samples, want %d", i, len(nv.PEs), pes)
		}
		for j, ps := range nv.PEs {
			if ps.PE != nv.BasePE+j {
				t.Errorf("node %d sample %d: PE %d", i, j, ps.PE)
			}
			if ps.Util < 0 || ps.Util > 1 {
				t.Errorf("node %d PE %d: util %v", i, ps.PE, ps.Util)
			}
			if ps.TotalEMs > 0 {
				sawEMs = true
			}
		}
		// Each node hosts `pes` members of the NodeWorker group.
		found := false
		for _, cs := range nv.Colls {
			if cs.Type == "NodeWorker" && cs.Kind == "group" && cs.Elems == pes {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d colls = %+v, want a NodeWorker group of %d", i, nv.Colls, pes)
		}
	}
	if !sawEMs {
		t.Error("no PE sample recorded any entry methods")
	}
}

// WhereWorker reports its hosting PE, so tests can observe migrations.
type WhereWorker struct {
	Chare
}

func (w *WhereWorker) Where() int { return int(w.MyPE()) }

// TestTriggerLBRoundMovesElements forces an LB round from outside the
// AtSync protocol (the /introspect/lb path): the runtime censuses element
// loads on every PE, runs the strategy, and migrates — without any element
// ever calling AtSync.
func TestTriggerLBRoundMovesElements(t *testing.T) {
	const nodes, pes, elems = 2, 2, 8
	total := nodes * pes
	runMultiNode(t, nodes, pes, func(cfg *Config) {
		cfg.LB = rotateAll{}
	}, func(rt *Runtime) {
		rt.Register(&WhereWorker{})
	}, func(self *Chare) {
		arr := self.NewArray(&WhereWorker{}, []int{elems})
		before := make([]int, elems)
		for i := range before {
			before[i] = arr.At(i).CallRet("Where").Get().(int)
		}
		cids, err := self.ctx().p.rt.TriggerLBRound()
		if err != nil {
			t.Errorf("TriggerLBRound: %v", err)
			return
		}
		if len(cids) != 1 {
			t.Errorf("triggered cids = %v, want exactly the array", cids)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			moved := 0
			for i := range before {
				pe := arr.At(i).CallRet("Where").Get().(int)
				if pe == (before[i]+1)%total {
					moved++
				}
			}
			if moved == elems {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("only %d/%d elements moved to their rotated PE", moved, elems)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// TestTraceGatherTimeoutPartial covers the partial-gather path: node 0 of a
// "2-node" job whose peer never reports must give up after its gather
// timeout, here shortened from the 3s constant, keeping its own report — and
// say which node is missing and what is known about why: nothing came, a
// report was turned away by the full gather queue, or it came too late.
func TestTraceGatherTimeoutPartial(t *testing.T) {
	tr := trace.New(1)
	tr.EM(0, "A", "M", 0, time.Millisecond)
	rt := NewRuntime(Config{
		PEs:         1,
		Transport:   &discardTransport{n: 2},
		Trace:       tr,
		TraceGather: true,
	})
	rt.gatherTimeout = 60 * time.Millisecond
	rt.wt = buildWireTables(rt.types)
	rt.traceRepCh = make(chan trace.Report, 2)

	start := time.Now()
	err := rt.gatherTraces()
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "received 1 of 2 node reports within 60ms") ||
		!strings.Contains(err.Error(), "none from node(s) [1] (0 dropped at ingress") {
		t.Errorf("partial gather said %q: want the count, the timeout, the missing node and that nothing came", err)
	}
	if elapsed < 60*time.Millisecond {
		t.Errorf("gather returned after %v, before the 60ms timeout", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("gather took %v: the configured timeout was ignored", elapsed)
	}
	if reps := rt.TraceReports(); len(reps) != 1 || reps[0].Node != 0 {
		t.Errorf("partial gather kept %d reports", len(reps))
	}
	err = rt.takeTraceReport(trace.Report{Node: 1, NumPEs: 1})
	if err == nil || !strings.Contains(err.Error(), "report from node 1 arrived") ||
		!strings.Contains(err.Error(), "after the gather had given up") {
		t.Errorf("a report after the deadline said %q: want the node and that it was late", err)
	}

	// A report the full gather queue turns away is named when it is dropped
	// and counted in what the gather says when it gives up.
	rt3 := NewRuntime(Config{
		PEs:         1,
		Transport:   &discardTransport{n: 3},
		Trace:       trace.New(1),
		TraceGather: true,
	})
	rt3.gatherTimeout = 20 * time.Millisecond
	rt3.wt = buildWireTables(rt3.types)
	rt3.traceRepCh = make(chan trace.Report, 1)
	if err := rt3.takeTraceReport(trace.Report{Node: 1, NumPEs: 1}); err != nil {
		t.Errorf("first report: %v", err)
	}
	err = rt3.takeTraceReport(trace.Report{Node: 2, NumPEs: 1})
	if err == nil || !strings.Contains(err.Error(), "dropped the report from node 2") {
		t.Errorf("a report for the full queue said %q: want the node and that it was dropped", err)
	}
	err = rt3.gatherTraces()
	if err == nil || !strings.Contains(err.Error(), "none from node(s) [2] (1 dropped at ingress") {
		t.Errorf("gather after a drop said %q: want node 2 missing and the drop", err)
	}

	// With the peer's report already queued, the gather completes at once.
	rt2 := NewRuntime(Config{
		PEs:         1,
		Transport:   &discardTransport{n: 2},
		Trace:       trace.New(1),
		TraceGather: true,
	})
	rt2.gatherTimeout = 5 * time.Second
	rt2.wt = buildWireTables(rt2.types)
	rt2.traceRepCh = make(chan trace.Report, 2)
	rt2.traceRepCh <- trace.Report{Node: 1, NumPEs: 1}
	start = time.Now()
	if err := rt2.gatherTraces(); err != nil {
		t.Errorf("complete gather: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("complete gather waited on the timeout")
	}
	if reps := rt2.TraceReports(); len(reps) != 2 {
		t.Errorf("complete gather kept %d reports, want 2", len(reps))
	}
}

// AllocTick is a minimal chare for allocation guards.
type AllocTick struct {
	Chare
}

func (a *AllocTick) Tick() {}

// TestInvokeAllocsSamplingHooks guards the observer's hot-path cost: the
// per-message and per-EM event sites in the PE scheduler are behind a single
// nil check, so with every observer off (the default) they add zero
// allocations — and with an observer that neither traces nor exports metrics
// (sampling only) its events are atomics-only, so the counts must be
// identical.
func TestInvokeAllocsSamplingHooks(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode instrumentation perturbs allocation counts")
	}
	rt := NewRuntime(Config{PEs: 1})
	rt.Register(&AllocTick{})
	rt.wt = buildWireTables(rt.types)
	rt.pes = []*peState{newPEState(rt, 0)}
	p := rt.pes[0]

	cm := &createMsg{CID: 9, Kind: ckGroup, Type: typeNameOf(&AllocTick{})}
	rt.putCollMeta(cm)
	p.handle(&Message{Kind: mCreate, Src: 0, Ctl: cm})
	m := &Message{Kind: mInvoke, CID: 9, MID: -1, Method: "Tick", Src: 0, Idx: []int{0}}
	p.handle(m) // warm dispatch caches

	if rt.obs != nil {
		t.Fatal("observer unexpectedly enabled by default")
	}
	off := testing.AllocsPerRun(500, func() { p.handle(m) })

	rt.obs = newObserver(rt)
	on := testing.AllocsPerRun(500, func() { p.handle(m) })
	rt.obs = nil

	if on != off {
		t.Errorf("invoke allocs with observer = %.1f, without = %.1f: accounting is not allocation-free", on, off)
	}
}
