package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"charmgo/internal/metrics"
	"charmgo/internal/transport"
)

// collWorker is a group chare exercised by the spanning-tree collective
// tests: it counts broadcast ticks and contributes them back up.
type collWorker struct {
	Chare
	ticks   int
	matched int
}

func (w *collWorker) Tick() { w.ticks++ }

func (w *collWorker) Sum(done Future) { w.Contribute(w.ticks, SumReducer, done) }

func (w *collWorker) GatherPE(done Future) {
	w.Contribute(int(w.MyPE())*3+1, GatherReducer, done)
}

func (w *collWorker) Check(payload []byte) {
	if bytes.Equal(payload, largePayload) {
		w.matched++
	}
}

func (w *collWorker) Matched(done Future) { w.Contribute(w.matched, SumReducer, done) }

// TestBroadcastTreeWireSends is the spanning tree's contract: at 8 nodes,
// originating one broadcast costs its root at most treeArity = 4 wire sends,
// where messaging every peer would take numNodes-1 = 7. The workload is
// deterministic, so the count of broadcasts each node originates is exact.
func TestBroadcastTreeWireSends(t *testing.T) {
	const nodes, ticks = 8, 10
	rts := runMultiNode(t, nodes, 1, func(cfg *Config) {
		cfg.Metrics = metrics.NewRegistry()
	}, func(rt *Runtime) { rt.Register(&collWorker{}) },
		func(self *Chare) {
			g := self.NewGroup(&collWorker{})
			for i := 0; i < ticks; i++ {
				g.Call("Tick")
			}
			f := self.CreateFuture()
			g.Call("Sum", f)
			if got := f.Get(); got != ticks*nodes {
				t.Errorf("tick sum = %v, want %d", got, ticks*nodes)
			}
		})
	var ops int64
	for n, rt := range rts {
		b, sends := rt.obs.collBcasts.Value(), rt.nBcastSends.Load()
		ops += b
		if sends > b*treeArity {
			t.Errorf("node %d: %d root sends for %d broadcasts, want <= %d each", n, sends, b, treeArity)
		}
	}
	if ops < ticks {
		t.Fatalf("workload originated %d broadcasts, expected at least %d", ops, ticks)
	}
}

// newLocalRuntime builds a runtime with live PEs but no scheduler
// goroutines, for driving delivery paths directly.
func newLocalRuntime(pes int) *Runtime {
	rt := NewRuntime(Config{PEs: pes})
	rt.wt = buildWireTables(rt.types)
	rt.pes = make([]*peState, pes)
	for i := 0; i < pes; i++ {
		rt.pes[i] = newPEState(rt, PE(i))
	}
	return rt
}

// drainShared pops one message from each PE mailbox and performs the
// scheduler's shared-reference decrement, returning the popped messages.
func drainShared(t *testing.T, rt *Runtime) []*Message {
	t.Helper()
	out := make([]*Message, 0, len(rt.pes))
	for i, p := range rt.pes {
		m, ok := p.mbox.tryPop()
		if !ok {
			t.Fatalf("PE %d: no message delivered", i)
		}
		if sh := m.shared; sh != nil && sh.refs.Add(-1) == 0 && sh.release != nil {
			sh.release()
		}
		out = append(out, m)
	}
	return out
}

// TestBroadcastLocalZeroCopy checks the zero-copy local fan-out: a node
// broadcast is decoded (or built) once and every local PE receives the very
// same *Message — same argument backing, no per-PE copies — with the
// release hook firing exactly once, after the last PE finishes.
func TestBroadcastLocalZeroCopy(t *testing.T) {
	rt := newLocalRuntime(4)
	payload := make([]float64, 1024)
	m := &Message{Kind: mInvoke, CID: 7, MID: -1, Method: "Tick", Src: -1, Args: []any{payload}}
	released := 0
	rt.deliverAllLocalShared(m, func() { released++ })
	if got := m.shared.refs.Load(); got != 4 {
		t.Fatalf("refs = %d after delivery, want 4", got)
	}
	for i, got := range drainShared(t, rt) {
		if got != m {
			t.Errorf("PE %d received a copy, want the shared *Message", i)
		}
	}
	if released != 1 {
		t.Errorf("release ran %d times, want exactly once after the last PE", released)
	}

	// The mutable shapes (element-addressed invokes bump hop counts in
	// place) must keep per-PE copies.
	el := &Message{Kind: mInvoke, CID: 7, Idx: []int{1}, MID: -1, Method: "Tick", Src: -1}
	released = 0
	rt.deliverAllLocalShared(el, func() { released++ })
	if released != 1 {
		t.Fatalf("copy path: release ran %d times, want once (synchronously)", released)
	}
	seen := map[*Message]bool{}
	for i, p := range rt.pes {
		got, ok := p.mbox.tryPop()
		if !ok {
			t.Fatalf("PE %d: no copy delivered", i)
		}
		if got == el || seen[got] {
			t.Errorf("PE %d: element-addressed broadcast not copied per PE", i)
		}
		if got.shared != nil {
			t.Errorf("PE %d: per-PE copy carries a shared record", i)
		}
		seen[got] = true
	}
}

// TestBroadcastDeliverAllocs guards the fan-out cost: delivering a node
// broadcast to every local PE allocates only the one shared fan-out record,
// independent of PE count and payload size — not one copy per PE.
func TestBroadcastDeliverAllocs(t *testing.T) {
	rt := newLocalRuntime(8)
	payload := make([]byte, 1<<20)
	m := &Message{Kind: mInvoke, CID: 7, MID: -1, Method: "Tick", Src: -1, Args: []any{payload}}
	// Warm the mailbox rings so steady-state delivery doesn't grow them.
	for r := 0; r < 2; r++ {
		rt.deliverAllLocalShared(m, nil)
		drainShared(t, rt)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rt.deliverAllLocalShared(m, nil)
		for _, p := range rt.pes {
			got, _ := p.mbox.tryPop()
			if sh := got.shared; sh != nil {
				sh.refs.Add(-1)
			}
		}
	})
	if allocs > 1 {
		t.Errorf("broadcast local delivery allocates %.1f times for 8 PEs, want <= 1 (shared record only)", allocs)
	}
}

// discardTransport swallows frames; it stands in for 8 peers so the tree
// send path can run without a network.
type discardTransport struct{ n int }

func (d *discardTransport) NodeID() int                  { return 0 }
func (d *discardTransport) NumNodes() int                { return d.n }
func (d *discardTransport) Send(int, []byte) error       { return nil }
func (d *discardTransport) SetHandler(transport.Handler) {}
func (d *discardTransport) Close() error                 { return nil }

// TestTreeSendAllocsMetricsOff guards the instrumentation cost: with
// metrics and tracing off, originating a tree broadcast (encode, sent
// vector, per-child frames) runs allocation-free — the
// charmgo_collective_* counter sites cost one nil check.
func TestTreeSendAllocsMetricsOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items at random; pooled send buffers are not allocation-free there")
	}
	rt := NewRuntime(Config{PEs: 1, Transport: &discardTransport{n: 8}})
	rt.wt = buildWireTables(rt.types)
	m := &Message{Kind: mInvoke, CID: 3, MID: -1, Method: "Tick", Src: 0, Args: []any{int(1)}}
	rt.bcastTree(m) // warm the buffer pool
	allocs := testing.AllocsPerRun(200, func() { rt.bcastTree(m) })
	if allocs > 0 {
		t.Errorf("bcastTree allocates %.1f times per broadcast with instrumentation off, want 0", allocs)
	}
}

// gatherBytes runs a job-wide gather over 4 PEs split across the given node
// count (ForceSerialize on, so every message takes the wire path) and
// returns the gob encoding of the result.
func gatherBytes(t *testing.T, nodes int) []byte {
	t.Helper()
	var out []byte
	entry := func(self *Chare) {
		g := self.NewGroup(&collWorker{})
		f := self.CreateFuture()
		g.Call("GatherPE", f)
		v := f.Get()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v.([]any)); err != nil {
			t.Errorf("gather result %v did not gob-encode: %v", v, err)
			return
		}
		out = buf.Bytes()
	}
	reg := func(rt *Runtime) { rt.Register(&collWorker{}) }
	if nodes == 1 {
		runJob(t, Config{PEs: 4, ForceSerialize: true}, reg, entry)
	} else {
		runMultiNode(t, nodes, 4/nodes, func(cfg *Config) { cfg.ForceSerialize = true }, reg, entry)
	}
	return out
}

// TestGatherDeterministicAcrossNodeCounts: a gather reduction must produce
// the same element-index-ordered result regardless of how the job is split
// into nodes — the tree combiners concatenate keyed partials and the root
// sorts, so -np 1 and -np 4 agree byte-for-byte.
func TestGatherDeterministicAcrossNodeCounts(t *testing.T) {
	one := gatherBytes(t, 1)
	four := gatherBytes(t, 4)
	if len(one) == 0 || len(four) == 0 {
		t.Fatal("gather produced no encoding")
	}
	if !bytes.Equal(one, four) {
		t.Errorf("gather result differs across node counts:\n  np1: %x\n  np4: %x", one, four)
	}
	two := gatherBytes(t, 2)
	if !bytes.Equal(one, two) {
		t.Errorf("gather result differs at np2:\n  np1: %x\n  np2: %x", one, two)
	}
}

// largePayload is TestBroadcastFragmentation's payload: past
// fragThreshold, with an odd tail.
var largePayload = func() []byte {
	b := make([]byte, fragThreshold*2+12345)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// TestBroadcastFragmentation pushes a payload past fragThreshold so the
// broadcast travels as pipelined fragments, and checks that every element
// of every node sees identical bytes, that quiescence detection (which
// counts each fragment) still fires behind it, and that no reassembly is
// left over. At 4 nodes the root reaches every node directly; at 6 nodes
// node 1 relays the fragments to node 5.
func TestBroadcastFragmentation(t *testing.T) {
	for _, tc := range []struct {
		nodes   int
		relayed bool
	}{{4, false}, {6, true}} {
		t.Run(fmt.Sprintf("np%d", tc.nodes), func(t *testing.T) {
			const pes = 2
			rts := runMultiNode(t, tc.nodes, pes, func(cfg *Config) {
				cfg.Metrics = metrics.NewRegistry()
			}, func(rt *Runtime) { rt.Register(&collWorker{}) },
				func(self *Chare) {
					g := self.NewGroup(&collWorker{})
					g.Call("Check", largePayload)
					self.WaitQD()
					f := self.CreateFuture()
					g.Call("Matched", f)
					if got, want := f.Get(), tc.nodes*pes; got != want {
						t.Errorf("%v elements saw the payload intact, want %d", got, want)
					}
				})
			if rts[0].bcastSeq.Load() == 0 {
				t.Error("large broadcast did not take the fragment path")
			}
			var relayed int64
			for i, rt := range rts {
				if i != 0 {
					relayed += rt.obs.collFrags.Value()
				}
				rt.fragMu.Lock()
				n := len(rt.frags)
				rt.fragMu.Unlock()
				if n != 0 {
					t.Errorf("node %d: %d fragment assemblies leaked", i, n)
				}
			}
			if (relayed > 0) != tc.relayed {
				t.Errorf("%d fragments relayed at %d nodes, want relayed = %v", relayed, tc.nodes, tc.relayed)
			}
		})
	}
}
