package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"charmgo/internal/transport"
)

// runMultiNode runs a job across n in-process "nodes" connected by the
// in-memory transport, each with pesPerNode PEs. Every cross-node message is
// serialized, exercising the full wire path.
func runMultiNode(t *testing.T, nodes, pesPerNode int, cfgTweak func(*Config), reg func(rt *Runtime), entry func(self *Chare)) []*Runtime {
	t.Helper()
	nw := transport.NewMemNetwork(nodes)
	rts := make([]*Runtime, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		cfg := Config{PEs: pesPerNode, Transport: nw.Endpoint(i)}
		if cfgTweak != nil {
			cfgTweak(&cfg)
		}
		rts[i] = NewRuntime(cfg)
		if reg != nil {
			reg(rts[i])
		}
	}
	done := make(chan struct{})
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rts[i].Start(func(self *Chare) {
				defer self.Exit()
				entry(self)
			})
		}(i)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("multi-node job did not complete within 60s")
	}
	for i := 0; i < nodes; i++ {
		nw.Endpoint(i).Close()
	}
	return rts
}

type NodeWorker struct {
	Chare
	Tag string
}

func (w *NodeWorker) Init(tag string) { w.Tag = tag }

func (w *NodeWorker) Describe() string {
	return fmt.Sprintf("%s@pe%d", w.Tag, w.MyPE())
}

func (w *NodeWorker) SumPE(done Future) {
	w.Contribute(int(w.MyPE()), SumReducer, done)
}

func TestMultiNodeGroup(t *testing.T) {
	const nodes, pes = 3, 2
	runMultiNode(t, nodes, pes, nil, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "w")
		// element call to a remote node
		for pe := 0; pe < nodes*pes; pe++ {
			got := g.At(pe).CallRet("Describe").Get()
			want := fmt.Sprintf("w@pe%d", pe)
			if got != want {
				t.Errorf("Describe on PE %d = %q, want %q", pe, got, want)
			}
		}
		// job-wide reduction
		f := self.CreateFuture()
		g.Call("SumPE", f)
		want := 0
		for pe := 0; pe < nodes*pes; pe++ {
			want += pe
		}
		if got := f.Get(); got != want {
			t.Errorf("cross-node reduction = %v, want %d", got, want)
		}
	})
}

func TestMultiNodeArrayMigration(t *testing.T) {
	const nodes, pes = 2, 2
	runMultiNode(t, nodes, pes, nil, func(rt *Runtime) {
		rt.Register(&Mover{})
	}, func(self *Chare) {
		m := self.NewChare(&Mover{}, PE(0))
		m.Call("SetState", 7, []float64{3.25})
		m.Call("Hop", 3) // cross-node migration
		if got := m.CallRet("Where").Get(); got != 3 {
			t.Fatalf("chare at %v, want PE 3", got)
		}
		if got := m.CallRet("GetState").Get(); got != 7 {
			t.Fatalf("state after cross-node migration = %v", got)
		}
	})
}

func TestMultiNodeProxyAsArgument(t *testing.T) {
	runMultiNode(t, 2, 1, nil, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
		rt.Register(&Relay{}, Threaded("AskDescribe"))
	}, func(self *Chare) {
		g := self.NewGroup(&NodeWorker{}, "x")
		r := self.NewChare(&Relay{}, PE(1))
		f := self.CreateFuture()
		r.Call("AskDescribe", g.At(0), f) // proxy + future cross the wire
		if got := f.Get(); got != "x@pe0" {
			t.Errorf("relayed describe = %v", got)
		}
	})
}

type Relay struct{ Chare }

// AskDescribe exercises CallRet on a proxy received from another node
// (re-binding) and blocking on the resulting future (threaded EM).
func (r *Relay) AskDescribe(target Proxy, done Future) {
	v := target.CallRet("Describe")
	done.Send(v.Get())
}

func TestForceSerializeMode(t *testing.T) {
	runJob(t, Config{PEs: 4, ForceSerialize: true}, func(rt *Runtime) {
		rt.Register(&SumWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&SumWorker{})
		f := self.CreateFuture()
		g.Call("Work", 3, f)
		want := 3 * (0 + 1 + 2 + 3)
		if got := f.Get(); got != want {
			t.Errorf("reduction under ForceSerialize = %v, want %d", got, want)
		}
	})
}

func TestDynamicDispatchMode(t *testing.T) {
	runJob(t, Config{PEs: 2, Dispatch: DynamicDispatch}, func(rt *Runtime) {
		rt.Register(&Hello{})
	}, func(self *Chare) {
		p := self.NewChare(&Hello{}, AnyPE)
		p.Call("SayHi", "dyn")
		if got := p.CallRet("Greetings").Get(); got != 1 {
			t.Errorf("Greetings = %v", got)
		}
	})
}

func TestSparseArrayInsert(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&GatherW{})
	}, func(self *Chare) {
		arr := self.NewSparseArray(&GatherW{}, 2)
		// insert a diagonal
		for i := 0; i < 5; i++ {
			arr.Insert([]int{i, i})
		}
		arr.DoneInserting()
		f := self.CreateFuture()
		arr.Call("GoSparse", f)
		v := f.Get()
		vals, ok := v.([]any)
		if !ok || len(vals) != 5 {
			t.Fatalf("sparse gather = %v", v)
		}
		for i := 0; i < 5; i++ {
			if vals[i] != i*2 {
				t.Errorf("vals[%d] = %v, want %d", i, vals[i], i*2)
			}
		}
	})
}

func (g *GatherW) GoSparse(done Future) {
	g.Contribute(g.ThisIndex[0]+g.ThisIndex[1], GatherReducer, done)
}

func TestMultiNodeExitFromRemote(t *testing.T) {
	// Exit is triggered by a chare on node 1; all nodes must shut down.
	runMultiNode(t, 2, 1, nil, func(rt *Runtime) {
		rt.Register(&Exiter{})
	}, func(self *Chare) {
		e := self.NewChare(&Exiter{}, PE(1))
		e.Call("Ping")
		// block forever; the remote Exit must still terminate the job
		f := self.CreateFuture()
		_ = f
		self.Wait("1 == 2")
	})
}

type Exiter struct{ Chare }

func (e *Exiter) Ping() { e.Exit() }

// TestCreateSharesResolvedType creates 64 collections on 4-PE nodes under
// the race detector: the node's PEs share one *createMsg per collection (the
// in-node fan-out on the creating node, the decoded broadcast on the other),
// so its node-local type record must be resolved once, before the fan-out,
// and only read afterwards.
func TestCreateSharesResolvedType(t *testing.T) {
	const nodes, pes, colls = 2, 4, 64
	runMultiNode(t, nodes, pes, nil, func(rt *Runtime) {
		rt.Register(&NodeWorker{})
	}, func(self *Chare) {
		for c := 0; c < colls; c++ {
			g := self.NewGroup(&NodeWorker{}, fmt.Sprint(c))
			last := nodes*pes - 1
			if got, want := g.At(last).CallRet("Describe").Get(), fmt.Sprintf("%d@pe%d", c, last); got != want {
				t.Fatalf("collection %d: %v, want %v", c, got, want)
			}
		}
	})
}
