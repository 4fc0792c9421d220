package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/transport"
)

// stealCfg is the standard single-node work-stealing test configuration: a
// fixed seed keeps victim selection reproducible across runs.
func stealCfg(pes int) Config {
	return Config{PEs: pes, StealEnabled: true, StealSeed: 12345}
}

// StealSleeper is a stealable chare (no threaded or when-gated methods)
// whose work is a short sleep — it blocks the executing goroutine, so on any
// GOMAXPROCS sibling PE schedulers get to run and steal.
type StealSleeper struct {
	Chare
	Handled int
}

func (s *StealSleeper) Nap(us int, done Future) {
	time.Sleep(time.Duration(us) * time.Microsecond)
	s.Handled++
	done.Send(1)
}

func (s *StealSleeper) Count() int { return s.Handled }

// stealSumSteals totals successful steals across a runtime's PEs.
func stealSumSteals(rt *Runtime) int64 {
	var n int64
	for _, p := range rt.pes {
		n += p.stats.steals.Load()
	}
	return n
}

// TestStealSkewedPlacement piles every chare onto PE 0 of a 4-PE node and
// checks that (a) all work completes and (b) the idle PEs actually stole run
// grants — the core overdecomposition win the scheduler exists for.
func TestStealSkewedPlacement(t *testing.T) {
	const chares = 32
	const msgs = 8
	rt := runJob(t, stealCfg(4), func(rt *Runtime) {
		rt.Register(&StealSleeper{})
	}, func(self *Chare) {
		done := self.CreateFuture(chares * msgs)
		var ps []Proxy
		for i := 0; i < chares; i++ {
			ps = append(ps, self.NewChare(&StealSleeper{}, PE(0)))
		}
		for m := 0; m < msgs; m++ {
			for _, p := range ps {
				p.Call("Nap", 200, done)
			}
		}
		done.Get()
		total := 0
		for _, p := range ps {
			total += p.CallRet("Count").Get().(int)
		}
		if total != chares*msgs {
			t.Errorf("handled %d messages, want %d", total, chares*msgs)
		}
	})
	if got := stealSumSteals(rt); got == 0 {
		t.Error("no steals occurred despite 32 chares pinned to PE 0 of 4")
	}
}

// StealSeqRecorder records the sequence numbers it receives, in order.
type StealSeqRecorder struct {
	Chare
	Seqs []int
}

func (r *StealSeqRecorder) Recv(seq int) { r.Seqs = append(r.Seqs, seq) }
func (r *StealSeqRecorder) Take() []int  { return r.Seqs }

// TestStealPerSenderFIFO checks the delivery-order invariant under active
// stealing: messages from one sender to one chare arrive in send order, even
// while the chare's run grant bounces between PEs (steals move whole-element
// grants, never individual messages).
func TestStealPerSenderFIFO(t *testing.T) {
	const n = 2000
	runJob(t, stealCfg(4), func(rt *Runtime) {
		rt.Register(&StealSeqRecorder{})
		rt.Register(&StealSleeper{})
	}, func(self *Chare) {
		target := self.NewChare(&StealSeqRecorder{}, PE(1))
		// Background load on the target's owner PE so its grants get stolen.
		noise := self.CreateFuture(16 * 4)
		for i := 0; i < 16; i++ {
			p := self.NewChare(&StealSleeper{}, PE(1))
			for m := 0; m < 4; m++ {
				p.Call("Nap", 100, noise)
			}
		}
		for i := 0; i < n; i++ {
			target.Call("Recv", i)
		}
		noise.Get()
		self.WaitQD()
		got := target.CallRet("Take").Get().([]int)
		if len(got) != n {
			t.Fatalf("received %d messages, want %d", len(got), n)
		}
		for i, s := range got {
			if s != i {
				t.Fatalf("FIFO broken at position %d: got seq %d", i, s)
			}
		}
	})
}

// stealBusy flags one in-flight execution per element; stealViolations
// counts concurrent entries (must stay zero — the run grant is the mutual
// exclusion).
var (
	stealBusy       [64]atomic.Int32
	stealViolations atomic.Int64
)

type StealExclusive struct {
	Chare
	ID int
}

func (e *StealExclusive) SetID(id int) { e.ID = id }

func (e *StealExclusive) Hit(done Future) {
	if !stealBusy[e.ID].CompareAndSwap(0, 1) {
		stealViolations.Add(1)
	}
	time.Sleep(50 * time.Microsecond)
	stealBusy[e.ID].Store(0)
	done.Send(1)
}

// TestStealSingleExecution hammers 64 skew-placed chares and asserts no
// element ever executed on two PEs at once.
func TestStealSingleExecution(t *testing.T) {
	stealViolations.Store(0)
	const chares = 64
	const msgs = 6
	rt := runJob(t, stealCfg(4), func(rt *Runtime) {
		rt.Register(&StealExclusive{})
	}, func(self *Chare) {
		done := self.CreateFuture(chares * msgs)
		for i := 0; i < chares; i++ {
			p := self.NewChare(&StealExclusive{}, PE(i%2))
			p.Call("SetID", i)
			for m := 0; m < msgs; m++ {
				p.Call("Hit", done)
			}
		}
		done.Get()
	})
	if v := stealViolations.Load(); v != 0 {
		t.Errorf("%d concurrent executions of one element (grant mutual exclusion broken)", v)
	}
	_ = rt
}

// TestStealLBRotation runs the full AtSync load-balancing protocol with
// stealing on: stats gathering, grant-held migration (lbApplyMoves via
// grabGrant), and ResumeFromSync routed through the run-grant path.
func TestStealLBRotation(t *testing.T) {
	const rounds = 3
	runJob(t, Config{PEs: 4, StealEnabled: true, StealSeed: 7, LB: rotateAll{}}, func(rt *Runtime) {
		rt.Register(&LBUnit{})
	}, func(self *Chare) {
		done := self.CreateFuture()
		arr := self.NewArray(&LBUnit{}, []int{8})
		arr.Call("Setup", rounds, done)
		if got := done.Get(); got != 8*(rounds+1) {
			t.Errorf("history total = %v, want %d", got, 8*(rounds+1))
		}
	})
}

// StealWaiter has a threaded, wait-gated entry method, so its type must be
// classified non-stealable and keep running through the classic inline path.
type StealWaiter struct {
	Chare
	Flag int
}

func (w *StealWaiter) SetFlag(v int) { w.Flag = v }

func (w *StealWaiter) WaitForFlag() int {
	w.Wait("self.flag != 0")
	return w.Flag
}

// TestStealThreadedTypeStaysPinned: threaded/when-gated types must bypass
// the run-grant machinery entirely and still work under StealEnabled.
func TestStealThreadedTypeStaysPinned(t *testing.T) {
	runJob(t, stealCfg(2), func(rt *Runtime) {
		rt.Register(&StealWaiter{}, Threaded("WaitForFlag"))
	}, func(self *Chare) {
		p := self.NewChare(&StealWaiter{}, PE(1))
		f := p.CallRet("WaitForFlag")
		p.Call("SetFlag", 42)
		if got := f.Get(); got != 42 {
			t.Errorf("threaded wait under StealEnabled = %v, want 42", got)
		}
	})
}

// TestStealMissAllocs pins the steal-miss probe (idle PE finds no victim
// work) at zero allocations — it runs in the idle loop and must not churn.
func TestStealMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	runJob(t, stealCfg(4), func(rt *Runtime) {
		rt.Register(&Hello{})
	}, func(self *Chare) {
		p := self.ctx().p
		if avg := testing.AllocsPerRun(500, func() { p.trySteal() }); avg > 0 {
			t.Errorf("steal-miss path allocates %.3f objects/op, want 0", avg)
		}
	})
}

// ---- FT and elastic quiesce regressions ----

// memFTStore is a minimal in-memory FTStore for single-node checkpoint tests.
type memFTStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
	holds []FTHolding
}

func (s *memFTStore) StoreSnapshot(epoch int64, origin, numNodes int, blob []byte, own bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blobs == nil {
		s.blobs = map[string][]byte{}
	}
	s.blobs[fmt.Sprintf("%d/%d", origin, epoch)] = blob
	s.holds = append(s.holds, FTHolding{Epoch: epoch, Origin: origin, NumNodes: numNodes, Own: own})
}

func (s *memFTStore) Holdings() []FTHolding {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FTHolding(nil), s.holds...)
}

func (s *memFTStore) Snapshot(origin int, epoch int64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[fmt.Sprintf("%d/%d", origin, epoch)]
	return b, ok
}

// TestStealFTCheckpointQuiesced: FTCheckpoint must pause thieves so
// collectBundle never serializes an element mid-execution on a sibling PE.
func TestStealFTCheckpointQuiesced(t *testing.T) {
	store := &memFTStore{}
	cfg := stealCfg(4)
	cfg.FT = store
	rt := runJob(t, cfg, func(rt *Runtime) {
		rt.Register(&StealSleeper{})
	}, func(self *Chare) {
		done := self.CreateFuture(16 * 4)
		var ps []Proxy
		for i := 0; i < 16; i++ {
			ps = append(ps, self.NewChare(&StealSleeper{}, PE(0)))
		}
		for m := 0; m < 4; m++ {
			for _, p := range ps {
				p.Call("Nap", 150, done)
			}
		}
		done.Get()
		if _, err := self.FTCheckpoint(); err != nil {
			t.Errorf("FTCheckpoint under stealing: %v", err)
		}
		// Stealing must be re-enabled after the checkpoint commits.
		if self.Runtime().stealPause.Load() != 0 {
			t.Error("stealPause still armed after FTCheckpoint returned")
		}
	})
	if len(store.Holdings()) == 0 {
		t.Error("checkpoint stored no snapshots")
	}
	_ = rt
}

// TestStealElasticLeaveQuiesced: ElasticLeave permanently pauses the
// leaver's thieves before the coordinator drains its elements, so censused
// move orders cannot race a thief-held grant.
func TestStealElasticLeaveQuiesced(t *testing.T) {
	const width, pes, n = 3, 2, 12
	nw := transport.NewMemNetwork(width)
	rts := make([]*Runtime, width)
	for i := 0; i < width; i++ {
		rts[i] = NewRuntime(Config{
			PEs: pes, Transport: nw.Endpoint(i),
			InitialActive: []int{0, 1, 2},
			StealEnabled:  true, StealSeed: 99,
		})
		rts[i].Register(&EShard{})
	}
	ready := make(chan Proxy, 1)
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rts[i].Start(func(self *Chare) {
				ready <- self.NewArray(&EShard{}, []int{n})
				self.Wait("1 == 2") // park; the driver ends the job via Exit
			})
		}(i)
	}
	var arr Proxy
	select {
	case arr = <-ready:
	case <-time.After(20 * time.Second):
		t.Fatal("cluster did not come up")
	}
	for i := 0; i < n; i++ {
		extCallWait(t, arr.At(i), "Put", fmt.Sprintf("k%d", i), i)
	}
	if err := rts[1].ElasticLeave(20 * time.Second); err != nil {
		t.Fatalf("ElasticLeave with stealing: %v", err)
	}
	if rts[1].stealPause.Load() == 0 {
		t.Error("leaver's stealPause not armed by ElasticLeave")
	}
	if err := rts[1].ElasticSettle(20 * time.Second); err != nil {
		t.Fatalf("ElasticSettle with stealing: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := extCallWait(t, arr.At(i), "Get", fmt.Sprintf("k%d", i)); got != i {
			t.Errorf("after leave: Get(k%d) = %v, want %d", i, got, i)
		}
	}
	for _, rt := range rts {
		rt.Exit() // the retired node exits locally; an active node ends the job
	}
	wg.Wait()
	for i := 0; i < width; i++ {
		nw.Endpoint(i).Close()
	}
}

// TestStealMultiNode: grants and handbacks stay node-local while regular
// cross-node traffic flows — a 2-node smoke with stealing on both nodes.
func TestStealMultiNode(t *testing.T) {
	runMultiNode(t, 2, 2, func(cfg *Config) {
		cfg.StealEnabled = true
		cfg.StealSeed = 3
	}, func(rt *Runtime) {
		rt.Register(&StealSleeper{})
	}, func(self *Chare) {
		const chares = 12
		const msgs = 4
		done := self.CreateFuture(chares * msgs)
		for i := 0; i < chares; i++ {
			p := self.NewChare(&StealSleeper{}, PE(i%4))
			for m := 0; m < msgs; m++ {
				p.Call("Nap", 100, done)
			}
		}
		done.Get()
	})
}
