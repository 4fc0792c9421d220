package core

import (
	"sync"
	"testing"
	"time"
)

// runJob starts a single-node runtime with the given config, registers types
// via reg, runs entry, and waits for completion with a watchdog.
func runJob(t *testing.T, cfg Config, reg func(rt *Runtime), entry func(self *Chare)) *Runtime {
	t.Helper()
	rt := NewRuntime(cfg)
	if reg != nil {
		reg(rt)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Start(func(self *Chare) {
			defer self.Exit()
			entry(self)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete within 30s (deadlock?)")
	}
	return rt
}

type Hello struct {
	Chare
	Greeted int
}

var helloMu sync.Mutex
var helloLog []string

func (h *Hello) SayHi(msg string) {
	helloMu.Lock()
	helloLog = append(helloLog, msg)
	helloMu.Unlock()
	h.Greeted++
}

func (h *Hello) Greetings() int { return h.Greeted }

func TestSingleChareInvoke(t *testing.T) {
	helloLog = nil
	runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&Hello{})
	}, func(self *Chare) {
		p := self.NewChare(&Hello{}, AnyPE)
		p.Call("SayHi", "hello world")
		f := p.CallRet("Greetings")
		if got := f.Get(); got != 1 {
			t.Errorf("Greetings = %v, want 1", got)
		}
	})
	helloMu.Lock()
	defer helloMu.Unlock()
	if len(helloLog) != 1 || helloLog[0] != "hello world" {
		t.Errorf("helloLog = %v", helloLog)
	}
}

func TestChareOnSpecificPE(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&PEReporter{})
	}, func(self *Chare) {
		for pe := 0; pe < 4; pe++ {
			p := self.NewChare(&PEReporter{}, PE(pe))
			if got := p.CallRet("WhichPE").Get(); got != pe {
				t.Errorf("chare on PE %d reports %v", pe, got)
			}
		}
	})
}

type PEReporter struct{ Chare }

func (r *PEReporter) WhichPE() int { return int(r.MyPE()) }

func TestGroupBroadcastAndReduction(t *testing.T) {
	const nPE = 4
	runJob(t, Config{PEs: nPE}, func(rt *Runtime) {
		rt.Register(&SumWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&SumWorker{})
		f := self.CreateFuture()
		g.Call("Work", 10, f)
		got := f.Get()
		want := 0
		for pe := 0; pe < nPE; pe++ {
			want += 10 * pe
		}
		if got != want {
			t.Errorf("sum reduction = %v, want %d", got, want)
		}
	})
}

type SumWorker struct{ Chare }

func (w *SumWorker) Work(mult int, done Future) {
	w.Contribute(mult*w.ThisIndex[0], SumReducer, done)
}

func TestArrayCreationAndIndices(t *testing.T) {
	runJob(t, Config{PEs: 3}, func(rt *Runtime) {
		rt.Register(&IdxEcho{})
	}, func(self *Chare) {
		arr := self.NewArray(&IdxEcho{}, []int{4, 5})
		f := self.CreateFuture()
		arr.Call("Report", Target{Fut: f.Ref, IsFut: true}) // broadcast; gather via reduction target
		// use a gather reduction instead
		got := f.Get()
		_ = got
		// direct element invocation
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				v := arr.At(i, j).CallRet("Echo").Get()
				idx, ok := v.([]int)
				if !ok || len(idx) != 2 || idx[0] != i || idx[1] != j {
					t.Fatalf("Echo(%d,%d) = %v", i, j, v)
				}
			}
		}
	})
}

type IdxEcho struct{ Chare }

func (e *IdxEcho) Echo() []int { return e.ThisIndex }

func (e *IdxEcho) Report(done Target) {
	e.Contribute(nil, NopReducer, done)
}

func TestFuturesAcrossChares(t *testing.T) {
	runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&FutWorker{})
	}, func(self *Chare) {
		w := self.NewChare(&FutWorker{}, PE(1))
		f1 := self.CreateFuture()
		f2 := self.CreateFuture()
		w.Call("DoWork", f1, f2)
		if v := f1.Get(); v != "first" {
			t.Errorf("f1 = %v", v)
		}
		if v := f2.Get(); v != 42 {
			t.Errorf("f2 = %v", v)
		}
	})
}

type FutWorker struct{ Chare }

func (w *FutWorker) DoWork(f1, f2 Future) {
	f1.Send("first")
	f2.Send(42)
}

func TestWhenCondition(t *testing.T) {
	runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&Sequenced{},
			When("Recv", "self.iter == iter"),
			ArgNames("Recv", "iter", "val"),
			Threaded("Drive"))
	}, func(self *Chare) {
		s := self.NewChare(&Sequenced{}, PE(1))
		// send out of order: iterations 2, 1, 0
		s.Call("Recv", 2, 300)
		s.Call("Recv", 1, 200)
		s.Call("Recv", 0, 100)
		f := self.CreateFuture()
		s.Call("Drive", 3, f)
		got := f.Get()
		vals, ok := got.([]any)
		if !ok || len(vals) != 3 {
			t.Fatalf("got %v", got)
		}
		for i, want := range []int{100, 200, 300} {
			if vals[i] != want {
				t.Errorf("vals[%d] = %v, want %d", i, vals[i], want)
			}
		}
	})
}

type Sequenced struct {
	Chare
	Iter int
	Vals []any
}

func (s *Sequenced) Recv(iter, val int) {
	s.Vals = append(s.Vals, val)
	s.Iter++
}

func (s *Sequenced) Drive(n int, done Future) {
	s.Wait("len(self.vals) == 3")
	done.Send(append([]any(nil), s.Vals...))
}

func TestBroadcastRetFuture(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&Counter{})
	}, func(self *Chare) {
		g := self.NewGroup(&Counter{})
		f := g.CallRet("Bump")
		if v := f.Get(); v != nil {
			t.Errorf("broadcast future value = %v, want nil", v)
		}
		// all members must have executed
		sum := g.CallRet2SumForTest(self)
		if sum != 4 {
			t.Errorf("bump sum = %d, want 4", sum)
		}
	})
}

type Counter struct {
	Chare
	N int
}

func (c *Counter) Bump() { c.N++ }

func (c *Counter) Sum(done Future) { c.Contribute(c.N, SumReducer, done) }

// CallRet2SumForTest gathers the counters with a reduction.
func (pr Proxy) CallRet2SumForTest(self *Chare) int {
	f := self.CreateFuture()
	pr.Call("Sum", f)
	v := f.Get()
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	}
	return -1
}

func TestMigration(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&Mover{})
	}, func(self *Chare) {
		m := self.NewChare(&Mover{}, PE(0))
		m.Call("SetState", 123, []float64{1.5, 2.5})
		for hop := 1; hop < 4; hop++ {
			m.Call("Hop", hop)
			got := m.CallRet("Where").Get()
			if got != hop {
				t.Fatalf("after hop %d: chare at PE %v", hop, got)
			}
			st := m.CallRet("GetState").Get()
			if st != 123 {
				t.Fatalf("state lost after migration: %v", st)
			}
		}
	})
}

type Mover struct {
	Chare
	Value int
	Data  []float64
}

func (m *Mover) SetState(v int, d []float64) { m.Value = v; m.Data = d }
func (m *Mover) Hop(pe int)                  { m.Migrate(PE(pe)) }
func (m *Mover) Where() int                  { return int(m.MyPE()) }
func (m *Mover) GetState() int               { return m.Value }

func TestGatherReduction(t *testing.T) {
	runJob(t, Config{PEs: 3}, func(rt *Runtime) {
		rt.Register(&GatherW{})
	}, func(self *Chare) {
		arr := self.NewArray(&GatherW{}, []int{6})
		f := self.CreateFuture()
		arr.Call("Go", f)
		v := f.Get()
		vals, ok := v.([]any)
		if !ok || len(vals) != 6 {
			t.Fatalf("gather = %v", v)
		}
		for i := 0; i < 6; i++ {
			if vals[i] != i*i {
				t.Errorf("gather[%d] = %v, want %d", i, vals[i], i*i)
			}
		}
	})
}

type GatherW struct{ Chare }

func (g *GatherW) Go(done Future) {
	i := g.ThisIndex[0]
	g.Contribute(i*i, GatherReducer, done)
}

func TestCustomReducer(t *testing.T) {
	runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&GatherW{})
		rt.AddReducer("concat_sum", func(contribs []any) any {
			total := 0
			for _, c := range contribs {
				total += c.(int)
			}
			return total
		})
	}, func(self *Chare) {
		arr := self.NewArray(&GatherW{}, []int{5})
		f := self.CreateFuture()
		arr.Call("GoCustom", f)
		if v := f.Get(); v != 0+1+4+9+16 {
			t.Errorf("custom reduction = %v, want 30", v)
		}
	})
}

func (g *GatherW) GoCustom(done Future) {
	i := g.ThisIndex[0]
	g.Contribute(i*i, Reducer{Name: "concat_sum"}, done)
}
