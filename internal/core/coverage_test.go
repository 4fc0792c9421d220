package core

// Targeted tests for less-exercised paths found by coverage analysis:
// location forwarding chains, container rebinding, dynamic argument
// coercion, and reduction type branches.

import (
	"testing"

	"charmgo/internal/ser"
)

// ---- location management: forwarding chains and caches ----

// TestForwardingChainAfterManyHops migrates a chare several times, then has
// senders on various PEs (with cold caches) message it: deliveries must
// route through tombstones/home and arrive exactly once each.
func TestForwardingChainAfterManyHops(t *testing.T) {
	runJob(t, Config{PEs: 6}, func(rt *Runtime) {
		rt.Register(&Mover{})
		rt.Register(&ColdSender{})
	}, func(self *Chare) {
		m := self.NewChare(&Mover{}, PE(0))
		m.Call("SetState", 0, nil)
		for hop := 1; hop <= 5; hop++ {
			m.Call("Hop", hop)
		}
		self.WaitQD() // migrations settle; home updated
		// senders on every PE fire one Bump each through their own route
		senders := self.NewGroup(&ColdSender{})
		fire := self.CreateFuture()
		senders.Call("SendBump", m, fire)
		fire.Get() // empty reduction: all sends issued
		self.WaitQD()
		if got := m.CallRet("GetState").Get(); got != 6 {
			t.Errorf("bumps delivered = %v, want 6", got)
		}
		if got := m.CallRet("Where").Get(); got != 5 {
			t.Errorf("chare at %v, want PE 5", got)
		}
	})
}

type ColdSender struct{ Chare }

func (s *ColdSender) SendBump(target Proxy, fire Future) {
	target.Call("Bump")
	s.Contribute(nil, NopReducer, fire)
}

func (m *Mover) Bump() { m.Value++ }

// TestSparseMessageBeforeInsert sends to a sparse element before it exists:
// the home PE must buffer and deliver on insertion.
func TestSparseMessageBeforeInsert(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&Hello{})
	}, func(self *Chare) {
		arr := self.NewSparseArray(&Hello{}, 1)
		arr.At(7).Call("SayHi", "early") // element does not exist yet
		self.WaitQD()                    // message parked at the home PE
		arr.Insert([]int{7})
		if got := arr.At(7).CallRet("Greetings").Get(); got != 1 {
			t.Errorf("pre-insert message delivered %v times, want 1", got)
		}
	})
}

// ---- rebinding proxies/futures inside containers across nodes ----

type ContainerCarrier struct{ Chare }

// UseMap receives proxies/futures inside maps and slices that crossed the
// wire and must be re-bound before use.
func (c *ContainerCarrier) UseMap(targets map[string]Proxy, futs []Future, tag string) {
	targets["hello"].Call("SayHi", tag)
	for i, f := range futs {
		f.Send(i * 11)
	}
}

func TestRebindContainersAcrossNodes(t *testing.T) {
	helloMu.Lock()
	helloLog = nil
	helloMu.Unlock()
	runMultiNode(t, 2, 1, nil, func(rt *Runtime) {
		rt.Register(&Hello{})
		rt.Register(&ContainerCarrier{})
		ser.RegisterType(map[string]Proxy{})
		ser.RegisterType([]Future{})
	}, func(self *Chare) {
		h := self.NewChare(&Hello{}, PE(0))
		cc := self.NewChare(&ContainerCarrier{}, PE(1))
		f1 := self.CreateFuture()
		f2 := self.CreateFuture()
		cc.Call("UseMap", map[string]Proxy{"hello": h}, []Future{f1, f2}, "boxed")
		if got := f1.Get(); got != 0 {
			t.Errorf("futs[0] = %v", got)
		}
		if got := f2.Get(); got != 11 {
			t.Errorf("futs[1] = %v", got)
		}
		self.WaitQD()
	})
	helloMu.Lock()
	defer helloMu.Unlock()
	if len(helloLog) != 1 || helloLog[0] != "boxed" {
		t.Errorf("proxy-in-map call: %v", helloLog)
	}
}

// ---- dynamic-dispatch argument coercion ----

type CoerceTarget struct {
	Chare
	F float64
	I int32
}

func (c *CoerceTarget) TakeFloat(x float64, done Future) {
	c.F = x
	done.Send(x)
}

func (c *CoerceTarget) TakeInt32(x int32, done Future) {
	c.I = x
	done.Send(int(x))
}

func TestDynamicCoercion(t *testing.T) {
	runJob(t, Config{PEs: 2, Dispatch: DynamicDispatch}, func(rt *Runtime) {
		rt.Register(&CoerceTarget{})
	}, func(self *Chare) {
		p := self.NewChare(&CoerceTarget{}, PE(1))
		f := self.CreateFuture()
		p.Call("TakeFloat", 3, f) // int -> float64, Python-style
		if got := f.Get(); got != 3.0 {
			t.Errorf("coerced float = %v", got)
		}
		f2 := self.CreateFuture()
		p.Call("TakeInt32", 7, f2) // int -> int32
		if got := f2.Get(); got != 7 {
			t.Errorf("coerced int32 = %v", got)
		}
		f3 := self.CreateFuture()
		p.Call("TakeFloat", nil, f3) // nil -> zero value
		if got := f3.Get(); got != 0.0 {
			t.Errorf("nil coerced to %v", got)
		}
	})
}

// ---- reduction type branches ----

type RedMore struct{ Chare }

func (r *RedMore) IntVec(done Future) {
	r.Contribute([]int{int(r.MyPE()), 1}, SumReducer, done)
}
func (r *RedMore) FloatMin(done Future) {
	r.Contribute(float64(10-r.MyPE()), MinReducer, done)
}
func (r *RedMore) FloatProd(done Future) {
	r.Contribute(0.5, ProductReducer, done)
}
func (r *RedMore) I64Min(done Future) {
	r.Contribute(int64(r.MyPE())-5, MinReducer, done)
}

func TestReductionTypeBranches(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&RedMore{})
	}, func(self *Chare) {
		g := self.NewGroup(&RedMore{})
		f := self.CreateFuture()
		g.Call("IntVec", f)
		iv := f.Get().([]int)
		if iv[0] != 6 || iv[1] != 4 {
			t.Errorf("[]int sum = %v", iv)
		}
		f2 := self.CreateFuture()
		g.Call("FloatMin", f2)
		if got := f2.Get(); got != 7.0 {
			t.Errorf("float min = %v", got)
		}
		f3 := self.CreateFuture()
		g.Call("FloatProd", f3)
		if got := f3.Get(); got != 0.0625 {
			t.Errorf("float product = %v", got)
		}
		f4 := self.CreateFuture()
		g.Call("I64Min", f4)
		if got := f4.Get(); got != int64(-5) {
			t.Errorf("int64 min = %v", got)
		}
	})
}

// ---- trivial accessors (locked in so refactors keep them working) ----

func TestAccessors(t *testing.T) {
	rt := runJob(t, Config{PEs: 3}, func(rt *Runtime) {
		rt.Register(&Hello{})
	}, func(self *Chare) {
		if self.NumPEs() != 3 {
			t.Error("chare accessors broken")
		}
	})
	if rt.NumPEs() != 3 {
		t.Errorf("runtime accessors: %d PEs", rt.NumPEs())
	}
	select {
	case <-rt.done:
	default:
		t.Error("Done channel not closed after exit")
	}
}

func TestMessageString(t *testing.T) {
	m := &Message{Kind: mInvoke, CID: 3, Idx: []int{1}, Method: "M", MID: 2, Src: 4}
	if s := m.String(); s == "" {
		t.Error("empty message string")
	}
}
