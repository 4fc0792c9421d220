package ft

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/leakcheck"
	"charmgo/internal/metrics"
	"charmgo/internal/transport"
)

// RWorker is the recovery-test workload: deterministic per-element state
// advanced one iteration at a time, with the running sum reduced back to the
// driver as the per-iteration barrier.
type RWorker struct {
	core.Chare
	Sum int
}

// Add applies work unit v and contributes the element's running sum.
func (w *RWorker) Add(v int, done core.Future) {
	w.Sum += v*10 + w.ThisIndex[0]
	w.Contribute(w.Sum, core.SumReducer, done)
}

const (
	recElems = 8
	recIters = 12
	recEvery = 3 // FTCheckpoint every recEvery iterations
)

// recExpected is the fault-free final total: element i accumulates v*10+i
// for v = 1..recIters; a recovered run must land on exactly this value.
func recExpected() int {
	total := 0
	for i := 0; i < recElems; i++ {
		for v := 1; v <= recIters; v++ {
			total += v*10 + i
		}
	}
	return total
}

// recHarness is an in-process cluster of ft.Jobs over one MemCluster.
type recHarness struct {
	t       *testing.T
	nodes   int
	cluster *MemCluster
	jobs    []*Job
	regs    []*metrics.Registry

	chaosMu sync.Mutex
	chaos   []*Chaos // round-0 chaos layer per node

	epoch  atomic.Int64 // last committed checkpoint epoch
	finals chan int     // final totals from completing runs

	// onCommit, when set before run(), is called synchronously from the
	// driver loop right after each checkpoint commits — the place to arm
	// faults that must race the following iterations' live traffic.
	onCommit func(epoch int64)

	// Without a pause the job can finish before the kill watcher fires;
	// when kills are armed the driver blocks after each checkpoint until
	// every armed kill has been delivered, so the failure deterministically
	// lands mid-run.
	gate    chan struct{}
	pending atomic.Int32
}

func newRecHarness(t *testing.T, nodes int) *recHarness {
	h := &recHarness{t: t, nodes: nodes, cluster: NewMemCluster(),
		chaos: make([]*Chaos, nodes), finals: make(chan int, nodes)}

	// loop drives iterations from..recIters on the main chare, checkpointing
	// every recEvery iterations. Fresh runs it from 1; after a recovery it
	// resumes at the first iteration not covered by the restored epoch —
	// replay applies every iteration exactly once, so the final total is
	// identical to the fault-free run by construction.
	loop := func(self *core.Chare, arr core.Proxy, from int) {
		total := 0
		for it := from; it <= recIters; it++ {
			f := self.CreateFuture()
			arr.Call("Add", it, f)
			total = f.Get().(int)
			if it%recEvery == 0 && it < recIters {
				if ep, err := self.FTCheckpoint(); err != nil {
					t.Errorf("FTCheckpoint at iter %d: %v", it, err)
				} else {
					h.epoch.Store(ep)
					if f := h.onCommit; f != nil {
						f(ep)
					}
				}
				if g := h.gate; g != nil {
					<-g // hold here until the armed kills have landed
				}
			}
		}
		h.finals <- total
		self.Exit()
	}

	for n := 0; n < nodes; n++ {
		n := n
		reg := metrics.NewRegistry()
		h.regs = append(h.regs, reg)
		h.jobs = append(h.jobs, NewJob(Config{
			Node:      n,
			Nodes:     nodes,
			PEs:       1,
			Transport: h.cluster.Factory(),
			Wrap: func(round int, tp transport.Transport) transport.Transport {
				c := Wrap(tp, int64(round)*100+int64(n))
				h.chaosMu.Lock()
				if round == 0 {
					h.chaos[n] = c
				}
				h.chaosMu.Unlock()
				return c
			},
			Register: func(rt *core.Runtime) { rt.Register(&RWorker{}) },
			Fresh: func(self *core.Chare) {
				arr := self.NewArray(&RWorker{}, []int{recElems})
				loop(self, arr, 1)
			},
			Restore: func(self *core.Chare, colls map[core.CID]core.Proxy, epoch int64) {
				if len(colls) != 1 {
					t.Errorf("restore: %d collections, want 1 (%v)", len(colls), colls)
					self.Exit()
					return
				}
				var arr core.Proxy
				for _, p := range colls {
					arr = p
				}
				loop(self, arr, int(epoch)*recEvery+1)
			},
			Heartbeat: 15 * time.Millisecond,
			Suspicion: 300 * time.Millisecond,
			Runtime:   core.Config{Metrics: reg},
		}))
	}
	return h
}

// run starts every node's job and returns their results.
func (h *recHarness) run() []error {
	errs := make([]error, h.nodes)
	var wg sync.WaitGroup
	for i, j := range h.jobs {
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			errs[i] = j.Run()
		}(i, j)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		h.t.Fatal("ft cluster did not finish")
	}
	return errs
}

// killAfterCommit arms a kill: once afterEpoch has committed, victim's
// round-0 chaos layer crashes (silence, not disconnection) and its job is
// killed. Must be called before run().
func (h *recHarness) killAfterCommit(victim int, afterEpoch int64) {
	if h.gate == nil {
		h.gate = make(chan struct{})
	}
	h.pending.Add(1)
	go func() {
		deadline := time.Now().Add(60 * time.Second)
		for h.epoch.Load() < afterEpoch {
			if time.Now().After(deadline) {
				return // run() will report the hang
			}
			time.Sleep(2 * time.Millisecond)
		}
		h.chaosMu.Lock()
		c := h.chaos[victim]
		h.chaosMu.Unlock()
		if c != nil {
			c.Crash()
		}
		h.jobs[victim].Kill()
		if h.pending.Add(-1) == 0 {
			close(h.gate)
		}
	}()
}

// final asserts exactly one run completed, with the fault-free total.
func (h *recHarness) final(launch int) {
	h.t.Helper()
	select {
	case total := <-h.finals:
		if total != recExpected() {
			h.t.Errorf("launch %d: final total %d, want fault-free %d", launch, total, recExpected())
		}
	default:
		h.t.Errorf("launch %d: no run delivered a final result", launch)
	}
	select {
	case extra := <-h.finals:
		h.t.Errorf("launch %d: second final result %d (job completed twice)", launch, extra)
	default:
	}
}

// TestJobCleanRun: the fault-tolerant driver without faults — checkpoints
// commit, the job finishes in round 0, nobody recovers.
func TestJobCleanRun(t *testing.T) {
	leakcheck.Check(t)
	h := newRecHarness(t, 3)
	for n, err := range h.run() {
		if err != nil {
			t.Errorf("node %d: %v", n, err)
		}
	}
	h.final(0)
	if got := h.epoch.Load(); got != recIters/recEvery-1 {
		t.Errorf("committed epoch %d, want %d", got, recIters/recEvery-1)
	}
	for n, j := range h.jobs {
		if r := j.Store().Recoveries(); r != 0 {
			t.Errorf("node %d recovered %d times in a fault-free run", n, r)
		}
	}
	// Every node snapshots once per epoch (own copy) and holds its buddy's.
	if v := h.regs[0].Counter("charmgo_ft_snapshots_total", "").Value(); v != recIters/recEvery-1 {
		t.Errorf("node 0 took %d snapshots, want %d", v, recIters/recEvery-1)
	}
}

// TestKillOneNodeRecovery is the acceptance test for the fault-tolerance
// subsystem: a 3-node job loses one node (each launch kills a different
// one) after a committed checkpoint, the survivors detect it, elect buddy
// holders, restore in a shrunken 2-node runtime, replay, and finish with a
// total identical to the fault-free run — ten times in a row.
func TestKillOneNodeRecovery(t *testing.T) {
	leakcheck.Check(t)
	for launch := 0; launch < 10; launch++ {
		victim := launch % 3
		h := newRecHarness(t, 3)
		h.killAfterCommit(victim, 1)
		errs := h.run()
		for n, err := range errs {
			if n == victim {
				if !errors.Is(err, ErrKilled) {
					t.Errorf("launch %d: victim %d returned %v, want ErrKilled", launch, n, err)
				}
			} else if err != nil {
				t.Errorf("launch %d: survivor %d returned %v", launch, n, err)
			}
		}
		h.final(launch)

		// The recovery is recorded on the node that coordinated the restore
		// (the smallest surviving id, node 0 of the shrunken runtime).
		coord := 0
		if victim == 0 {
			coord = 1
		}
		st := h.jobs[coord].Store()
		if st.Recoveries() != 1 {
			t.Errorf("launch %d: coordinator recovered %d times, want 1", launch, st.Recoveries())
		}
		if st.LastRecovery() <= 0 {
			t.Errorf("launch %d: recovery latency %v, want > 0", launch, st.LastRecovery())
		}
		reg := h.regs[coord]
		if v := reg.Counter("charmgo_ft_recoveries_total", "").Value(); v != 1 {
			t.Errorf("launch %d: recoveries counter %d, want 1", launch, v)
		}
		if v := reg.Counter("charmgo_ft_node_deaths_total", "").Value(); v < 1 {
			t.Errorf("launch %d: node-death counter %d, want >= 1", launch, v)
		}
		if hst := reg.Histogram("charmgo_ft_recovery_ms", ""); hst.Count() != 1 {
			t.Errorf("launch %d: recovery histogram count %d, want 1", launch, hst.Count())
		}
		if v := reg.Counter("charmgo_ft_snapshots_total", "").Value(); v < 1 {
			t.Errorf("launch %d: no snapshots on the coordinator", launch)
		}
		if t.Failed() {
			t.Fatalf("stopping after failed launch %d", launch)
		}
	}
}

// TestRecoveryRacesLiveTraffic is the mid-flight variant of
// TestKillOneNodeRecovery: the driver never pauses at the checkpoint
// barrier, and the victim's crash is triggered by a frame fuse — its chaos
// layer drops dead partway through an Add/reduce fan-out, so the survivors
// hold a partial exchange when the detector fires. Recovery must restore
// the committed epoch and replay to the bit-identical fault-free total,
// with rotating victims and no goroutine leaks.
func TestRecoveryRacesLiveTraffic(t *testing.T) {
	leakcheck.Check(t)
	for launch := 0; launch < 6; launch++ {
		victim := launch % 3
		h := newRecHarness(t, 3)
		var fired atomic.Bool
		killed := make(chan struct{})
		h.onCommit = func(ep int64) {
			// Arm once the first checkpoint has committed (so there is
			// something to restore): a few application frames later the
			// victim goes silent mid-exchange and its job is killed.
			if ep != 1 || !fired.CompareAndSwap(false, true) {
				return
			}
			h.chaosMu.Lock()
			c := h.chaos[victim]
			h.chaosMu.Unlock()
			if c == nil {
				t.Errorf("launch %d: no chaos layer for victim %d", launch, victim)
				close(killed)
				return
			}
			c.CrashAfterFrames(2, func() {
				h.jobs[victim].Kill()
				close(killed)
			})
		}
		errs := h.run()
		select {
		case <-killed:
		default:
			t.Fatalf("launch %d: fuse never blew — job finished without racing the crash", launch)
		}
		for n, err := range errs {
			if n == victim {
				if !errors.Is(err, ErrKilled) {
					t.Errorf("launch %d: victim %d returned %v, want ErrKilled", launch, n, err)
				}
			} else if err != nil {
				t.Errorf("launch %d: survivor %d returned %v", launch, n, err)
			}
		}
		h.final(launch)
		coord := 0
		if victim == 0 {
			coord = 1
		}
		if r := h.jobs[coord].Store().Recoveries(); r != 1 {
			t.Errorf("launch %d: coordinator recovered %d times, want 1", launch, r)
		}
		if t.Failed() {
			t.Fatalf("stopping after failed launch %d", launch)
		}
	}
}

// TestUnrecoverableDoubleFailure: losing a node and one of its blob holders
// between commits must be reported as unrecoverable, not hang. Killing
// nodes 1 and 2 leaves node 0 with no copy of origin 1's snapshot (its own
// was on node 1, its buddy copy on node 2).
func TestUnrecoverableDoubleFailure(t *testing.T) {
	leakcheck.Check(t)
	h := newRecHarness(t, 3)
	h.killAfterCommit(1, 1)
	h.killAfterCommit(2, 1)
	errs := h.run()
	for _, n := range []int{1, 2} {
		if !errors.Is(errs[n], ErrKilled) {
			t.Errorf("victim %d returned %v, want ErrKilled", n, errs[n])
		}
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "no complete checkpoint") {
		t.Errorf("survivor returned %v, want unrecoverable-checkpoint error", errs[0])
	}
	select {
	case total := <-h.finals:
		t.Errorf("unrecoverable job still produced a result: %d", total)
	default:
	}
}

// Store returns the node's snapshot store (shared with every incarnation).
func (j *Job) Store() *Manager { return j.store }

// Kill simulates this node dying: the current runtime is torn down and Run
// returns ErrKilled. Pair it with Chaos.Crash on the node's chaos layer so
// the peers see silence instead of a closed connection.
func (j *Job) Kill() {
	j.mu.Lock()
	j.killed = true
	rt := j.curRT
	j.mu.Unlock()
	if rt != nil {
		rt.Abort()
	}
}

// MemCluster coordinates per-round in-memory transports for in-process
// multi-node fault-tolerance runs (tests, examples): every survivor of a
// round asks for the same (round, live) pair and gets its endpoint of one
// shared MemNetwork.
type MemCluster struct {
	mu   sync.Mutex
	nets map[string]*transport.MemNetwork
}

// NewMemCluster creates an empty cluster.
func NewMemCluster() *MemCluster {
	return &MemCluster{nets: map[string]*transport.MemNetwork{}}
}

// Factory returns a TransportFactory backed by this cluster.
func (c *MemCluster) Factory() TransportFactory {
	return func(round int, live []int, self int) (transport.Transport, error) {
		key := fmt.Sprintf("%d/%v", round, live)
		c.mu.Lock()
		nw := c.nets[key]
		if nw == nil {
			nw = transport.NewMemNetwork(len(live))
			c.nets[key] = nw
		}
		c.mu.Unlock()
		for i, n := range live {
			if n == self {
				return nw.Endpoint(i), nil
			}
		}
		return nil, fmt.Errorf("ft: node %d not in live set %v", self, live)
	}
}

// Recoveries returns how many recoveries this store has lived through.
func (m *Manager) Recoveries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveries
}

// LastRecovery returns the detection-to-restore latency of the most recent
// recovery (0 if none happened).
func (m *Manager) LastRecovery() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastRecovery
}
