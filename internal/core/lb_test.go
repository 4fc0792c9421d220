package core

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// leastLoaded is GreedyLB (internal/lb imports core, so the test keeps its
// own): heaviest object first, each onto the PE with the least load so far,
// the lowest such PE on ties.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }
func (leastLoaded) Assign(objs []LBObject, numPEs int) map[string]PE {
	sorted := slices.Clone(objs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Load > sorted[j].Load })
	load := make([]float64, numPEs)
	out := make(map[string]PE, len(objs))
	for _, o := range sorted {
		best := 0
		for q := 1; q < numPEs; q++ {
			if load[q] < load[best] {
				best = q
			}
		}
		out[o.Key] = PE(best)
		load[best] += o.Load
	}
	return out
}

// TestLBSeesOnlyActivePEs runs one AtSync round of a greedy strategy in a
// 2-node job whose node 1 is provisioned but not active. The strategy must
// be offered the active PEs only: a move order naming one of node 1's PEs
// would put load on a node that is not in the view (the send would then
// fall through to its stand-in). Every migration's destination, as the
// trace records it from the move order, is checked.
func TestLBSeesOnlyActivePEs(t *testing.T) {
	const pes, elems = 2, 8
	nw := transport.NewMemNetwork(2)
	tr := trace.New(pes)
	rts := make([]*Runtime, 2)
	for i := range rts {
		cfg := Config{PEs: pes, Transport: nw.Endpoint(i), InitialActive: []int{0}, LB: leastLoaded{}}
		if i == 0 {
			cfg.Trace = tr
		}
		rts[i] = NewRuntime(cfg)
		rts[i].Register(&LBUnit{})
	}
	got := make(chan any, 1)
	var wg sync.WaitGroup
	for _, rt := range rts {
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			rt.Start(func(self *Chare) {
				done := self.CreateFuture()
				self.NewArray(&LBUnit{}, []int{elems}).Call("Setup", 1, done)
				got <- done.Get()
			})
		}(rt)
	}
	select {
	case v := <-got:
		if v != 2*elems {
			t.Errorf("history total = %v, want %d", v, 2*elems)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the AtSync round did not complete")
	}
	for _, rt := range rts {
		<-rt.running
		rt.Exit() // the inactive node exits locally
	}
	stopped := make(chan struct{})
	go func() { wg.Wait(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("job did not shut down")
	}
	for i := range rts {
		nw.Endpoint(i).Close()
	}
	evs := tr.Snapshot()
	if n := len(countEvents(evs, trace.EvLB, "")); n != 1 {
		t.Errorf("LB decisions = %d, want 1", n)
	}
	for _, e := range countEvents(evs, trace.EvMigrateOut, "") {
		if e.Dest >= pes {
			t.Errorf("move order sent an element from PE %d to PE %d, on inactive node 1", e.PE, e.Dest)
		}
	}
}

// TestQDNotEarlyForcedLB forces an LB round and starts quiescence detection
// at once. A round in flight is unfinished work (its trigger, poll, stats
// and move order are all counted), so QD must not fire before every element
// has reached the PE the rotating strategy sent it to.
func TestQDNotEarlyForcedLB(t *testing.T) {
	const nodes, pes, elems = 2, 2, 8
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
		if _, err := self.ctx().p.rt.TriggerLBRound(); err != nil {
			t.Errorf("TriggerLBRound: %v", err)
			return
		}
		self.WaitQD()
		for i, pe := range before {
			if got := arr.At(i).CallRet("Where").Get().(int); got != (pe+1)%(nodes*pes) {
				t.Errorf("element %d on PE %d when QD fired, want %d (it started on %d)", i, got, (pe+1)%(nodes*pes), pe)
			}
		}
	})
}

// overlapLog records, per element, the PE of each ResumeFromSync.
var overlapLog struct {
	sync.Mutex
	resumed map[int][]int
}

// OverlapUnit calls AtSync when told to and records where it resumes.
type OverlapUnit struct {
	Chare
}

func (u *OverlapUnit) Where() int { return int(u.MyPE()) }

// Sync reaches the LB barrier and reports the PE it did so on.
func (u *OverlapUnit) Sync() int {
	u.AtSync()
	return int(u.MyPE())
}

func (u *OverlapUnit) ResumeFromSync() {
	overlapLog.Lock()
	overlapLog.resumed[u.ThisIndex[0]] = append(overlapLog.resumed[u.ThisIndex[0]], int(u.MyPE()))
	overlapLog.Unlock()
}

// TestForcedLBOverlapsAtSync forces an LB round while half of a collection
// is at an AtSync barrier. The forced move order must leave every element
// at sync where it is, and move the others; once they reach the barrier too,
// the AtSync round must complete as if no forced round had run: every
// element moved once more, and resumed exactly once. The first half is the
// elements of PEs 0 and 1, so PE 0 reports before the forced moves bring it
// PE 3's elements.
func TestForcedLBOverlapsAtSync(t *testing.T) {
	const nodes, pes, elems = 2, 2, 16
	const total = nodes * pes
	overlapLog.Lock()
	overlapLog.resumed = map[int][]int{}
	overlapLog.Unlock()
	runMultiNode(t, nodes, pes, func(cfg *Config) {
		cfg.LB = rotateAll{}
	}, func(rt *Runtime) {
		rt.Register(&OverlapUnit{})
	}, func(self *Chare) {
		arr := self.NewArray(&OverlapUnit{}, []int{elems})
		start := make([]int, elems)
		perPE := map[int][]int{}
		for i := range start {
			start[i] = arr.At(i).CallRet("Where").Get().(int)
			perPE[start[i]] = append(perPE[start[i]], i)
		}
		first := map[int]bool{}
		for _, pe := range []int{0, 1} {
			for _, i := range perPE[pe] {
				first[i] = true
			}
		}
		if len(first) != elems/2 {
			t.Errorf("PEs 0 and 1 host %d of %d elements, want half", len(first), elems)
			return
		}
		for i := range start {
			if first[i] && arr.At(i).CallRet("Sync").Get().(int) != start[i] {
				t.Errorf("element %d moved before the forced round", i)
			}
		}
		if _, err := self.ctx().p.rt.TriggerLBRound(); err != nil {
			t.Errorf("TriggerLBRound: %v", err)
			return
		}
		// The elements not at sync rotate; asking them where they are is the
		// only message the test sends until they reach the barrier, since a
		// message to an element at sync could make its PE report early.
		deadline := time.Now().Add(20 * time.Second)
		for i := range start {
			if first[i] {
				continue
			}
			for arr.At(i).CallRet("Where").Get().(int) != (start[i]+1)%total {
				if time.Now().After(deadline) {
					t.Errorf("element %d (not at sync) did not take the forced move", i)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		for i := range start {
			if !first[i] {
				arr.At(i).CallRet("Sync").Get()
			}
		}
		self.WaitQD() // the AtSync round runs to its end, or stalls
		overlapLog.Lock()
		defer overlapLog.Unlock()
		for i, pe := range start {
			want := (pe + 2) % total // the forced move, then the AtSync one
			if first[i] {
				want = (pe + 1) % total // the AtSync move only
			}
			if r := overlapLog.resumed[i]; len(r) != 1 || r[0] != want {
				t.Errorf("element %d (at sync during the forced round: %v) resumed on %v, want once on PE %d",
					i, first[i], r, want)
			}
		}
	})
}

// allToPE1 moves every element to PE 1.
type allToPE1 struct{}

func (allToPE1) Name() string { return "all-to-pe1" }
func (allToPE1) Assign(objs []LBObject, numPEs int) map[string]PE {
	out := map[string]PE{}
	for _, o := range objs {
		out[o.Key] = 1
	}
	return out
}

// TestAtSyncAfterForcedMoves runs an AtSync round across a forced round's
// moves on one node of 2 PEs, in the two shapes where a PE's barrier
// changes under it. The round must finish and resume every element once.
//   - arrival: PE 1's elements are all at sync (PE 1 has reported) when the
//     forced round (rotateAll) brings it PE 0's elements, which reach
//     AtSync on PE 1 afterwards;
//   - departure: the forced round (allToPE1) moves away the one element of
//     PE 0 not at sync, leaving PE 0's others all at sync.
func TestAtSyncAfterForcedMoves(t *testing.T) {
	const elems = 6
	cases := []struct {
		name   string
		lb     LBStrategy
		early  func(pe int, nth int) bool // at sync before the forced round
		forced func(pe int) int           // where an element not at sync goes
		final  func(pe int) int           // where the AtSync round puts it
	}{
		{"arrival", rotateAll{},
			func(pe, nth int) bool { return pe == 1 },
			func(pe int) int { return 1 - pe },
			func(pe int) int { return 1 - pe }},
		{"departure", allToPE1{},
			func(pe, nth int) bool { return pe == 0 && nth > 0 },
			func(pe int) int { return 1 },
			func(pe int) int { return 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			overlapLog.Lock()
			overlapLog.resumed = map[int][]int{}
			overlapLog.Unlock()
			runJob(t, Config{PEs: 2, LB: tc.lb}, func(rt *Runtime) {
				rt.Register(&OverlapUnit{})
			}, func(self *Chare) {
				arr := self.NewArray(&OverlapUnit{}, []int{elems})
				early := map[int]bool{}
				moved := make([]int, elems) // the element's PE after the forced round
				nth := map[int]int{}
				for i := range moved {
					pe := arr.At(i).CallRet("Where").Get().(int)
					early[i] = tc.early(pe, nth[pe])
					nth[pe]++
					moved[i] = tc.forced(pe)
					if early[i] {
						moved[i] = pe
						arr.At(i).CallRet("Sync").Get()
					}
				}
				if _, err := self.ctx().p.rt.TriggerLBRound(); err != nil {
					t.Errorf("TriggerLBRound: %v", err)
					return
				}
				// Every move of the forced round lands before an element
				// not at sync is told to reach the barrier.
				deadline := time.Now().Add(20 * time.Second)
				for i, pe := range moved {
					for !early[i] && arr.At(i).CallRet("Where").Get().(int) != pe {
						if time.Now().After(deadline) {
							t.Errorf("element %d did not take the forced move", i)
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
				}
				for i := range moved {
					if !early[i] {
						arr.At(i).CallRet("Sync").Get()
					}
				}
				self.WaitQD() // the AtSync round runs to its end, or stalls
				overlapLog.Lock()
				defer overlapLog.Unlock()
				for i, pe := range moved {
					if r := overlapLog.resumed[i]; len(r) != 1 || r[0] != tc.final(pe) {
						t.Errorf("element %d (at sync before the forced round: %v) resumed on %v, want once on PE %d",
							i, early[i], r, tc.final(pe))
					}
				}
			})
		})
	}
}
