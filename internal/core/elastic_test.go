package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"charmgo/internal/transport"
)

// EShard is a keyed shard chare for the elastic membership tests: plain
// migratable state, request/reply entry methods.
type EShard struct {
	Chare
	Vals map[string]int
}

func (s *EShard) Init() { s.Vals = map[string]int{} }

func (s *EShard) Put(k string, v int) int {
	s.Vals[k] = v
	return len(s.Vals)
}

func (s *EShard) Get(k string) int { return s.Vals[k] }

// extCallWait drives one ExtCall and waits for the reply with a deadline.
func extCallWait(t *testing.T, pr Proxy, method string, args ...any) any {
	t.Helper()
	ch, ref := pr.ExtCall(method, args...)
	select {
	case v := <-ch:
		return v
	case <-time.After(20 * time.Second):
		pr.runtime().DropExtFuture(ref)
		t.Fatalf("ExtCall %s%v timed out", method, args)
		return nil
	}
}

// elasticCluster starts `width` runtimes over the in-memory transport with
// only the nodes in initial active, creates a 1-D EShard array of n elements
// from node 0's entry, and hands the collection proxy to the driver.
func elasticCluster(t *testing.T, width, pes, n int, initial []int) (rts []*Runtime, arr Proxy, finish func()) {
	t.Helper()
	nw := transport.NewMemNetwork(width)
	rts = make([]*Runtime, width)
	for i := 0; i < width; i++ {
		rts[i] = NewRuntime(Config{PEs: pes, Transport: nw.Endpoint(i), InitialActive: initial})
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
	select {
	case arr = <-ready:
	case <-time.After(20 * time.Second):
		t.Fatal("cluster did not come up")
	}
	// Wait for every Start to finish wiring (inactive nodes included) so the
	// driver's Exit in finish() cannot race runtime setup.
	for i := 0; i < width; i++ {
		select {
		case <-rts[i].running:
		case <-time.After(20 * time.Second):
			t.Fatalf("node %d did not finish startup", i)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	finish = func() {
		for _, rt := range rts {
			rt.Exit() // retired nodes exit locally; any active node ends the job
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("job did not shut down")
		}
		for i := 0; i < width; i++ {
			nw.Endpoint(i).Close()
		}
	}
	return rts, arr, finish
}

// elemsOnNode counts live array elements hosted by one node, via the
// coordinator's census primitive.
func elemsOnNode(t *testing.T, rt *Runtime, node, pes int) int {
	t.Helper()
	peList := make([]PE, pes)
	for i := range peList {
		peList[i] = PE(node*pes + i)
	}
	reps, errs := rt.censusPEs(peList, false)
	if errs != "" {
		t.Fatalf("census of node %d: %s", node, errs)
	}
	n := 0
	for _, rep := range reps {
		n += len(rep.Elems)
	}
	return n
}

func verifyAll(t *testing.T, arr Proxy, n int, stage string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := extCallWait(t, arr.At(i), "Get", fmt.Sprintf("k%d", i)); got != i {
			t.Fatalf("%s: Get(k%d) = %v, want %d", stage, i, got, i)
		}
	}
}

// TestElasticJoinLeave runs the full membership lifecycle on one job: a
// 2-of-3 cluster serves a keyed array, node 2 joins mid-run and receives a
// rebalanced share, then node 1 leaves with every element drained out —
// with every key readable (no losses) after each transition.
func TestElasticJoinLeave(t *testing.T) {
	const width, pes, n = 3, 2, 16
	rts, arr, finish := elasticCluster(t, width, pes, n, []int{0, 1})
	defer finish()

	for i := 0; i < n; i++ {
		if got := extCallWait(t, arr.At(i), "Put", fmt.Sprintf("k%d", i), i); got != 1 {
			t.Fatalf("Put(k%d) = %v, want 1", i, got)
		}
	}
	verifyAll(t, arr, n, "steady state")
	if got := elemsOnNode(t, rts[0], 2, pes); got != 0 {
		t.Fatalf("inactive node 2 hosts %d elements before joining", got)
	}

	// Node 2 joins: view widens, a share of the array migrates over.
	if err := rts[2].ElasticJoin(20 * time.Second); err != nil {
		t.Fatalf("ElasticJoin: %v", err)
	}
	if got := rts[0].ActiveNodes(); len(got) != 3 {
		t.Fatalf("active nodes after join = %v", got)
	}
	verifyAll(t, arr, n, "after join")
	deadline := time.Now().Add(10 * time.Second)
	for elemsOnNode(t, rts[0], 2, pes) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no elements rebalanced onto the joiner")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Node 1 leaves: its elements drain onto nodes 0 and 2 first.
	if err := rts[1].ElasticLeave(20 * time.Second); err != nil {
		t.Fatalf("ElasticLeave: %v", err)
	}
	if err := rts[1].ElasticSettle(20 * time.Second); err != nil {
		t.Fatalf("ElasticSettle: %v", err)
	}
	if got := rts[0].ActiveNodes(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("active nodes after leave = %v, want [0 2]", got)
	}
	if got := elemsOnNode(t, rts[0], 1, pes); got != 0 {
		t.Fatalf("departed node 1 still hosts %d elements", got)
	}
	verifyAll(t, arr, n, "after leave")

	// Writes must still land after both transitions.
	for i := 0; i < n; i++ {
		extCallWait(t, arr.At(i), "Put", fmt.Sprintf("k%d_b", i), i*3)
	}
	for i := 0; i < n; i++ {
		if got := extCallWait(t, arr.At(i), "Get", fmt.Sprintf("k%d_b", i)); got != i*3 {
			t.Fatalf("post-transition Get(k%d_b) = %v, want %d", i, got, i*3)
		}
	}
}

// TestElasticSettleWaitsForRun: a PE working through a batch run has already
// popped the run, so its mailbox reads empty while messages of the run are
// still to be handled. ElasticSettle must count those and not report the
// node settled.
func TestElasticSettleWaitsForRun(t *testing.T) {
	nw := transport.NewMemNetwork(2)
	defer nw.Endpoint(0).Close()
	defer nw.Endpoint(1).Close()
	rt := NewRuntime(Config{PEs: 2, Transport: nw.Endpoint(0), InitialActive: []int{0}})
	close(rt.byeCh) // every goodbye is in
	rt.pes[1].cnt.runLeft.Store(1)
	if rt.pes[1].mbox.len() != 0 {
		t.Fatal("mailbox not empty: the run must be the only work left")
	}
	if err := rt.ElasticSettle(200 * time.Millisecond); err == nil {
		t.Fatal("ElasticSettle reported settled while a PE was inside a run")
	}
}

// TestElasticJoinUnderLoad keeps requests in flight through a join and a
// leave and asserts none are lost: every reply arrives and every written key
// reads back.
func TestElasticTransitionsUnderLoad(t *testing.T) {
	const width, pes, n = 3, 2, 24
	rts, arr, finish := elasticCluster(t, width, pes, n, []int{0, 1})
	defer finish()

	stop := make(chan struct{})
	var sent, got int64
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("lk%d", i%n)
			sent++
			if v := extCallWait(t, arr.At(i%n), "Put", k, i); v != nil {
				got++
			}
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	if err := rts[2].ElasticJoin(20 * time.Second); err != nil {
		t.Fatalf("ElasticJoin under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := rts[1].ElasticLeave(20 * time.Second); err != nil {
		t.Fatalf("ElasticLeave under load: %v", err)
	}
	if err := rts[1].ElasticSettle(20 * time.Second); err != nil {
		t.Fatalf("ElasticSettle under load: %v", err)
	}
	close(stop)
	loadWG.Wait()
	if got != sent {
		t.Fatalf("lost replies under transitions: sent %d, got %d", sent, got)
	}
	if sent < int64(n) {
		t.Fatalf("load generator too slow to cover all keys (%d requests)", sent)
	}
	verifyAll := func(stage string) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("lk%d", i)
			if v := extCallWait(t, arr.At(i), "Get", k); v == nil {
				t.Fatalf("%s: Get(%s) returned nil", stage, k)
			}
		}
	}
	verifyAll("after load")
}

// TestElasticRejections pins the coordinator's validation: joining an active
// node, retiring the coordinator, and leaving from an inactive node all fail
// cleanly without disturbing the view.
func TestElasticRejections(t *testing.T) {
	const width, pes = 3, 1
	rts, _, finish := elasticCluster(t, width, pes, 4, []int{0, 1})
	defer finish()

	if err := rts[1].ElasticJoin(10 * time.Second); err == nil {
		t.Fatal("join of an already-active node succeeded")
	}
	if err := rts[0].ElasticLeave(10 * time.Second); err == nil {
		t.Fatal("coordinator leave succeeded")
	}
	if err := rts[2].ElasticLeave(10 * time.Second); err == nil {
		t.Fatal("leave of an inactive node succeeded")
	}
	if got := rts[0].ActiveNodes(); len(got) != 2 {
		t.Fatalf("view disturbed by rejected requests: %v", got)
	}
	if epoch := rts[0].view.Load().epoch; epoch != 1 {
		t.Fatalf("epoch advanced by rejected requests: %d", epoch)
	}
}
