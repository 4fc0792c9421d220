package core

// Tests for the paper's future-work features (section VI) implemented as
// extensions: quiescence detection and checkpoint/restart (fault tolerance
// plus shrink-expand).

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/transport"
)

// RingNode passes a token around a ring a fixed number of times and then
// goes silent, so quiescence has something to wait for.
type RingNode struct {
	Chare
	Hops int
	Seen int
}

func (r *RingNode) Pass(remaining int) {
	r.Seen++
	if remaining == 0 {
		return
	}
	n := (int(r.MyPE()) + 1) % r.NumPEs()
	r.ThisProxy().At(n).Call("Pass", remaining-1)
}

func (r *RingNode) Count(done Future) { done.Send(r.Seen) }

func TestQuiescenceAfterRing(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&RingNode{})
	}, func(self *Chare) {
		g := self.NewGroup(&RingNode{})
		g.At(0).Call("Pass", 25) // 26 hops around 4 PEs, then silence
		self.WaitQD()
		// after quiescence, all hops must have happened
		total := 0
		for pe := 0; pe < 4; pe++ {
			f := self.CreateFuture()
			g.At(pe).Call("Count", f)
			total += f.Get().(int)
		}
		if total != 26 {
			t.Errorf("after QD: %d hops seen, want 26", total)
		}
	})
}

func TestQuiescenceImmediate(t *testing.T) {
	// with nothing in flight, QD should fire promptly
	runJob(t, Config{PEs: 2}, nil, func(self *Chare) {
		start := time.Now()
		self.WaitQD()
		if time.Since(start) > 5*time.Second {
			t.Error("idle quiescence took too long")
		}
	})
}

func TestQuiescenceMultiNode(t *testing.T) {
	runMultiNode(t, 2, 2, nil, func(rt *Runtime) {
		rt.Register(&RingNode{})
	}, func(self *Chare) {
		g := self.NewGroup(&RingNode{})
		g.At(0).Call("Pass", 17)
		self.WaitQD()
		total := 0
		for pe := 0; pe < 4; pe++ {
			f := self.CreateFuture()
			g.At(pe).Call("Count", f)
			total += f.Get().(int)
		}
		if total != 18 {
			t.Errorf("after QD: %d hops, want 18", total)
		}
	})
}

// qdHold parks, through Runtime.holdEM, the PE about to run the first entry
// method its match accepts, until node 0's coordinator has finished two whole
// probe rounds begun after the park. The message has left its mailbox (or run
// queue) and its handler has not started: quiescence declared now is early.
// match must not pick PE 0 or a node's first PE, which answer the probes.
type qdHold struct {
	match func(p *peState, m *Message) bool
	rt0   atomic.Pointer[Runtime]
	held  atomic.Bool   // a PE was parked
	back  chan struct{} // closed when it goes on
	fired atomic.Bool   // the job's WaitQD has returned
	early atomic.Bool   // ... while the PE was still parked
}

func (h *qdHold) install(rt *Runtime) {
	if rt.nodeID == 0 {
		h.rt0.Store(rt)
		h.back = make(chan struct{})
	}
	rt.holdEM = func(p *peState, m *Message) {
		if !h.match(p, m) || !h.held.CompareAndSwap(false, true) {
			return
		}
		defer close(h.back)
		round := &h.rt0.Load().qd.round
		// Round start+1 begins after this line and start+2 after that one is
		// evaluated; start+3 is announced when both are over.
		start := round.Load()
		for deadline := time.Now().Add(20 * time.Second); round.Load() < start+3 && time.Now().Before(deadline); {
			if h.fired.Load() {
				h.early.Store(true)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// check is called by the job's main chare when its WaitQD has returned.
func (h *qdHold) check(t *testing.T) {
	h.fired.Store(true)
	if !h.held.Load() {
		t.Error("no PE was ever parked before a handler: nothing was tested")
		return
	}
	<-h.back // at once: either it went on long ago, or it sees fired
	if h.early.Load() {
		t.Error("quiescence was declared while a dequeued message's handler had not begun")
	}
}

func ringTotal(self *Chare, g Proxy) int {
	total := 0
	for pe := 0; pe < 4; pe++ {
		f := self.CreateFuture()
		g.At(pe).Call("Count", f)
		total += f.Get().(int)
	}
	return total
}

// TestQDNotEarlyWhileHandlerPending is the deterministic form of what made
// TestQuiescenceAfterRing flaky: a message that has been dequeued but whose
// handler has not run must keep the job out of quiescence, wherever it
// waits — after the mailbox or after an ingress forward.
// Counting a message at dequeue failed every one of these on every run.
func TestQDNotEarlyWhileHandlerPending(t *testing.T) {
	pass := func(pe PE) func(p *peState, m *Message) bool {
		return func(p *peState, m *Message) bool { return m.Method == "Pass" && p.pe == pe }
	}
	reg := func(h *qdHold) func(rt *Runtime) {
		return func(rt *Runtime) {
			rt.Register(&RingNode{})
			h.install(rt)
		}
	}
	ring := func(t *testing.T, h *qdHold, hops int) func(self *Chare) {
		return func(self *Chare) {
			g := self.NewGroup(&RingNode{})
			g.At(0).Call("Pass", hops-1)
			self.WaitQD()
			h.check(t)
			if total := ringTotal(self, g); total != hops {
				t.Errorf("after QD: %d hops seen, want %d", total, hops)
			}
		}
	}
	t.Run("1x4", func(t *testing.T) {
		h := &qdHold{match: pass(3)}
		runJob(t, Config{PEs: 4}, reg(h), ring(t, h, 26))
	})
	t.Run("2x2", func(t *testing.T) {
		h := &qdHold{match: pass(3)}
		runMultiNode(t, 2, 2, nil, reg(h), ring(t, h, 18))
	})
	t.Run("ingress-forward", func(t *testing.T) {
		// A frame for PE 1 is sent to node 1, whose ingress finds the
		// destination is not its own and forwards it back (what a stale
		// location does); PE 1 is then parked on it.
		h := &qdHold{match: pass(1)}
		runMultiNode(t, 2, 2, nil, reg(h), func(self *Chare) {
			g := self.NewGroup(&RingNode{})
			rt := self.ctx().p.rt
			m := &Message{Kind: mInvoke, CID: g.CID, Idx: []int{1}, MID: -1, Method: "Pass",
				Src: self.MyPE(), Args: []any{5}}
			rt.admit(1, m)
			rt.xmit(rt.countWire(2, m.Src), appendMsg(transport.GetBuf(), 1, m, rt.wt))
			self.WaitQD()
			h.check(t)
			if total := ringTotal(self, g); total != 6 {
				t.Errorf("after QD: %d hops seen, want 6", total)
			}
		})
	})
}

// CkptWorker carries state through a checkpoint.
type CkptWorker struct {
	Chare
	Value   int
	History []float64
}

func (w *CkptWorker) Bump(by int) {
	w.Value += by
	w.History = append(w.History, float64(w.Value))
}

func (w *CkptWorker) Report(done Future) {
	w.Contribute(w.Value, SumReducer, done)
}

func (w *CkptWorker) HistLen(done Future) {
	w.Contribute(len(w.History), SumReducer, done)
}

func TestCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")

	var arrCID CID
	// Phase 1: run, mutate state, checkpoint, exit.
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&CkptWorker{})
	}, func(self *Chare) {
		arr := self.NewArray(&CkptWorker{}, []int{8})
		arrCID = arr.CID
		for i := 0; i < 8; i++ {
			arr.At(i).Call("Bump", i*10)
			arr.At(i).Call("Bump", 1)
		}
		self.WaitQD()
		if err := self.Checkpoint(path); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	// Phase 2: restore on a DIFFERENT PE count (shrink-expand) and verify
	// every chare's state survived.
	rt2 := NewRuntime(Config{PEs: 2})
	rt2.Register(&CkptWorker{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := Restart(rt2, path, func(self *Chare, colls map[CID]Proxy) {
			defer self.Exit()
			arr, ok := colls[arrCID]
			if !ok {
				t.Errorf("restored collections missing array %d: %v", arrCID, colls)
				return
			}
			f := self.CreateFuture()
			arr.Call("Report", f)
			want := 0
			for i := 0; i < 8; i++ {
				want += i*10 + 1
			}
			if got := f.Get(); got != want {
				t.Errorf("restored sum = %v, want %d", got, want)
			}
			// slices restored too
			h := self.CreateFuture()
			arr.Call("HistLen", h)
			if got := h.Get(); got != 16 {
				t.Errorf("restored history length = %v, want 16", got)
			}
			// restored chares remain fully functional
			arr.At(3).Call("Bump", 1000)
			f2 := self.CreateFuture()
			arr.Call("Report", f2)
			if got := f2.Get(); got != want+1000 {
				t.Errorf("post-restore bump sum = %v, want %d", got, want+1000)
			}
		})
		if err != nil {
			t.Errorf("restart: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("restart did not complete")
	}
}

func TestCheckpointRestartExpand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	var cid CID
	runJob(t, Config{PEs: 1}, func(rt *Runtime) {
		rt.Register(&CkptWorker{})
	}, func(self *Chare) {
		arr := self.NewArray(&CkptWorker{}, []int{6})
		cid = arr.CID
		arr.Call("Bump", 7)
		self.WaitQD()
		if err := self.Checkpoint(path); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})

	// expand 1 PE -> 3 PEs
	rt2 := NewRuntime(Config{PEs: 3})
	rt2.Register(&CkptWorker{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := Restart(rt2, path, func(self *Chare, colls map[CID]Proxy) {
			defer self.Exit()
			f := self.CreateFuture()
			colls[cid].Call("Report", f)
			if got := f.Get(); got != 42 {
				t.Errorf("expanded-restore sum = %v, want 42", got)
			}
		})
		if err != nil {
			t.Errorf("restart: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("expand restart did not complete")
	}
}

func TestRestartMissingFile(t *testing.T) {
	rt := NewRuntime(Config{PEs: 1})
	if err := Restart(rt, "/nonexistent/nope.ckpt", func(self *Chare, colls map[CID]Proxy) {
		self.Exit()
	}); err == nil {
		t.Error("Restart with missing file succeeded")
	}
}
