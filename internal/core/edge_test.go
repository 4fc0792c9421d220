package core

// Edge cases, failure injection, and less-travelled API surface.

import (
	"charmgo/internal/testport"
	"strings"
	"testing"
	"time"

	"charmgo/internal/ser"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// ---- custom ArrayMap placement (paper section II-G1) ----

type modMap struct{ Mod int }

func (m modMap) ProcNum(index []int, numPEs int) int {
	return index[0] % m.Mod
}

func TestCustomArrayMap(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&PEReporter{})
		rt.RegisterMap("mod2", modMap{Mod: 2})
	}, func(self *Chare) {
		arr := self.NewArrayMapped(&PEReporter{}, []int{8}, "mod2")
		for i := 0; i < 8; i++ {
			got := arr.At(i).CallRet("WhichPE").Get()
			if got != i%2 {
				t.Errorf("element %d on PE %v, want %d", i, got, i%2)
			}
		}
	})
}

func TestUnregisteredArrayMapPanics(t *testing.T) {
	runJob(t, Config{PEs: 1}, func(rt *Runtime) {
		rt.Register(&PEReporter{})
	}, func(self *Chare) {
		defer func() {
			if r := recover(); r == nil {
				t.Error("NewArrayMapped with unregistered map did not panic")
			}
		}()
		self.NewArrayMapped(&PEReporter{}, []int{2}, "nope")
	})
}

func expectPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Errorf("expected panic containing %q", substr)
		return
	}
	msg, _ := r.(string)
	if msg == "" {
		if err, ok := r.(error); ok {
			msg = err.Error()
		}
	}
	if !strings.Contains(msg, substr) {
		t.Errorf("panic %q does not contain %q", msg, substr)
	}
}

// ---- registration misuse ----

func TestRegisterAfterStartPanics(t *testing.T) {
	rt := NewRuntime(Config{PEs: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Start(func(self *Chare) {
			defer self.Exit()
			defer func() {
				if recover() == nil {
					t.Error("Register after Start did not panic")
				}
			}()
			rt.Register(&Hello{})
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	rt := NewRuntime(Config{PEs: 1})
	rt.Register(&Hello{})
	defer expectPanic(t, "registered twice")
	rt.Register(&Hello{})
}

func TestWhenOnUnknownMethodPanics(t *testing.T) {
	rt := NewRuntime(Config{PEs: 1})
	defer expectPanic(t, "unknown method")
	rt.Register(&Hello{}, When("NoSuch", "True"))
}

func TestBadWhenConditionPanics(t *testing.T) {
	rt := NewRuntime(Config{PEs: 1})
	defer expectPanic(t, "when-condition")
	rt.Register(&Hello{}, When("SayHi", "x +"))
}

// ---- runtime misuse caught with clear errors ----

func TestUnknownEntryMethodPanics(t *testing.T) {
	// the scheduler panics on an unknown method; that crashes the PE
	// goroutine, which is fail-fast by design. Catch it via recover in a
	// wrapper chare call instead: validate at the static-dispatch proxy.
	rt := NewRuntime(Config{PEs: 1})
	rt.Register(&Hello{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Start(func(self *Chare) {
			defer self.Exit()
			defer func() {
				if recover() == nil {
					t.Error("Call of unknown method did not panic")
				}
			}()
			p := self.NewChare(&Hello{}, PE(0))
			p.Call("Bogus")
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}

func TestGetOutsideThreadPanics(t *testing.T) {
	runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&NonThreadedBlocker{})
	}, func(self *Chare) {
		p := self.NewChare(&NonThreadedBlocker{}, PE(1))
		f := self.CreateFuture()
		p.Call("TryBlock", f)
		if got := f.Get(); got != "panicked" {
			t.Errorf("non-threaded Get: %v", got)
		}
	})
}

type NonThreadedBlocker struct{ Chare }

func (n *NonThreadedBlocker) TryBlock(report Future) {
	defer func() {
		if r := recover(); r != nil {
			report.Send("panicked")
			return
		}
		report.Send("no panic")
	}()
	f := n.CreateFuture()
	f.Get() // must panic: TryBlock is not threaded
}

// ---- reductions: remaining built-in reducers ----

type RedKinds struct{ Chare }

func (r *RedKinds) GoMax(f Future)  { r.Contribute(int(r.MyPE())*3, MaxReducer, f) }
func (r *RedKinds) GoMin(f Future)  { r.Contribute(10-int(r.MyPE()), MinReducer, f) }
func (r *RedKinds) GoProd(f Future) { r.Contribute(2, ProductReducer, f) }
func (r *RedKinds) GoAnd(f Future)  { r.Contribute(int(r.MyPE()) < 3, AndReducer, f) }
func (r *RedKinds) GoOr(f Future)   { r.Contribute(int(r.MyPE()) == 2, OrReducer, f) }
func (r *RedKinds) GoVec(f Future) {
	r.Contribute([]float64{float64(r.MyPE()), 1}, SumReducer, f)
}
func (r *RedKinds) GoVecMax(f Future) {
	r.Contribute([]int64{int64(r.MyPE()), -int64(r.MyPE())}, MaxReducer, f)
}

func TestBuiltinReducers(t *testing.T) {
	const nPE = 4
	runJob(t, Config{PEs: nPE}, func(rt *Runtime) {
		rt.Register(&RedKinds{})
	}, func(self *Chare) {
		g := self.NewGroup(&RedKinds{})
		check := func(method string, want any) {
			t.Helper()
			f := self.CreateFuture()
			g.Call(method, f)
			if got := f.Get(); got != want {
				t.Errorf("%s = %v (%T), want %v", method, got, got, want)
			}
		}
		check("GoMax", 9)
		check("GoMin", 7)
		check("GoProd", 16)
		check("GoAnd", false)
		check("GoOr", true)

		f := self.CreateFuture()
		g.Call("GoVec", f)
		vec := f.Get().([]float64)
		if vec[0] != 6 || vec[1] != 4 {
			t.Errorf("vector sum = %v", vec)
		}
		f2 := self.CreateFuture()
		g.Call("GoVecMax", f2)
		vm := f2.Get().([]int64)
		if vm[0] != 3 || vm[1] != 0 {
			t.Errorf("vector max = %v", vm)
		}
	})
}

func TestReductionToEntryMethod(t *testing.T) {
	// target an entry method of a single chare instead of a future
	runJob(t, Config{PEs: 3}, func(rt *Runtime) {
		rt.Register(&RedKinds{})
		rt.Register(&Sink{})
	}, func(self *Chare) {
		sink := self.NewChare(&Sink{}, PE(2))
		g := self.NewGroup(&RedKinds{})
		f := self.CreateFuture()
		sink.Call("Arm", f)
		g.Call("ToSink", sink)
		if got := f.Get(); got != 0+1+2 {
			t.Errorf("reduction to entry method = %v", got)
		}
	})
}

type Sink struct {
	Chare
	Armed Future
	Val   any
	Has   bool
}

func (s *Sink) Arm(f Future) {
	s.Armed = f
	if s.Has {
		f.Send(s.Val)
	}
}

func (s *Sink) Deliver(v any) {
	s.Val = v
	s.Has = true
	if s.Armed.Ref.ID != 0 {
		s.Armed.Send(v)
	}
}

func (r *RedKinds) ToSink(sink Proxy) {
	r.Contribute(int(r.MyPE()), SumReducer, sink.Target("Deliver"))
}

func TestReductionBroadcastTarget(t *testing.T) {
	// reduction result broadcast to the whole contributing group
	runJob(t, Config{PEs: 3}, func(rt *Runtime) {
		rt.Register(&BcastRed{})
	}, func(self *Chare) {
		g := self.NewGroup(&BcastRed{})
		f := self.CreateFuture(3)
		g.Call("Go", f)
		vals := f.Get().([]any)
		for _, v := range vals {
			if v != 3 {
				t.Errorf("broadcast reduction member got %v, want 3", v)
			}
		}
	})
}

type BcastRed struct {
	Chare
	Done Future
}

func (b *BcastRed) Go(done Future) {
	b.Done = done
	b.Contribute(1, SumReducer, b.ThisProxy().Target("GotResult"))
}

func (b *BcastRed) GotResult(v any) {
	b.Done.Send(v)
}

// ---- multi-futures ----

func TestMultiFuture(t *testing.T) {
	runJob(t, Config{PEs: 3}, func(rt *Runtime) {
		rt.Register(&FutWorker{})
	}, func(self *Chare) {
		f := self.CreateFuture(3)
		for pe := 0; pe < 3; pe++ {
			w := self.NewChare(&FutWorker{}, PE(pe))
			w.Call("SendOne", f, pe*100)
		}
		vals := f.Get().([]any)
		if len(vals) != 3 {
			t.Fatalf("multi-future returned %d values", len(vals))
		}
		sum := 0
		for _, v := range vals {
			sum += v.(int)
		}
		if sum != 300 {
			t.Errorf("multi-future sum = %d", sum)
		}
	})
}

func (w *FutWorker) SendOne(f Future, v int) { f.Send(v) }

func TestFutureReady(t *testing.T) {
	runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&FutWorker{})
	}, func(self *Chare) {
		f := self.CreateFuture()
		if fs := self.ctx().p.futures[f.Ref.ID]; fs == nil || fs.ready {
			t.Error("fresh future is ready")
		}
		w := self.NewChare(&FutWorker{}, PE(1))
		w.Call("SendOne", f, 5)
		if got := f.Get(); got != 5 {
			t.Errorf("Get = %v", got)
		}
	})
}

// ---- migration interplay ----

// StatefulMover checks that proxies and futures held in chare state are
// usable after migration (re-binding) and that when-buffered messages
// follow the chare.
type StatefulMover struct {
	Chare
	Iter   int
	Peer   Proxy
	Report Future
	Got    []int
}

func (s *StatefulMover) Setup(peer Proxy, report Future) {
	s.Peer = peer
	s.Report = report
}

func (s *StatefulMover) Recv(iter, v int) {
	s.Got = append(s.Got, v)
	s.Iter++
	if s.Iter == 3 {
		// use the migrated-in proxy and future
		s.Peer.Call("SayHi", "from migrant")
		s.Report.Send(append([]int(nil), s.Got...))
	}
}

func (s *StatefulMover) Hop(to int) { s.Migrate(PE(to)) }

func TestMigrationWithBufferedWhenMessages(t *testing.T) {
	helloLog = nil
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&Hello{})
		rt.Register(&StatefulMover{},
			When("Recv", "self.iter == iter"),
			ArgNames("Recv", "iter", "v"))
	}, func(self *Chare) {
		peer := self.NewChare(&Hello{}, PE(3))
		m := self.NewChare(&StatefulMover{}, PE(0))
		rep := self.CreateFuture()
		m.Call("Setup", peer, rep)
		// send iterations out of order, then migrate mid-buffer
		m.Call("Recv", 2, 30)
		m.Call("Recv", 1, 20)
		m.Call("Hop", 2)
		m.Call("Recv", 0, 10)
		got := rep.Get().([]int)
		want := []int{10, 20, 30}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
		self.WaitQD() // let the migrant's SayHi land before we inspect
	})
	helloMu.Lock()
	defer helloMu.Unlock()
	if len(helloLog) != 1 || helloLog[0] != "from migrant" {
		t.Errorf("peer proxy after migration: %v", helloLog)
	}
}

// ---- LB in the real runtime with a rotating strategy across nodes ----

type LBUnit struct {
	Chare
	Rounds int
	Hist   []int // PEs visited
	Done   Future
}

func (u *LBUnit) Setup(rounds int, done Future) {
	u.Rounds = rounds
	u.Done = done
	u.Hist = append(u.Hist, int(u.MyPE()))
	u.AtSync()
}

func (u *LBUnit) ResumeFromSync() {
	u.Hist = append(u.Hist, int(u.MyPE()))
	u.Rounds--
	if u.Rounds == 0 {
		u.Contribute(len(u.Hist), SumReducer, u.Done)
		return
	}
	u.AtSync()
}

type rotateAll struct{}

func (rotateAll) Name() string { return "rotate-all" }
func (rotateAll) Assign(objs []LBObject, numPEs int) map[string]PE {
	out := map[string]PE{}
	for _, o := range objs {
		out[o.Key] = PE((int(o.PE) + 1) % numPEs)
	}
	return out
}

func TestLBRotationMultiNode(t *testing.T) {
	const rounds = 3
	runMultiNode(t, 2, 2, func(cfg *Config) {
		cfg.LB = rotateAll{}
	}, func(rt *Runtime) {
		rt.Register(&LBUnit{})
	}, func(self *Chare) {
		done := self.CreateFuture()
		arr := self.NewArray(&LBUnit{}, []int{8})
		arr.Call("Setup", rounds, done)
		// each of 8 elements records rounds+1 PEs
		if got := done.Get(); got != 8*(rounds+1) {
			t.Errorf("history total = %v, want %d", got, 8*(rounds+1))
		}
	})
}

// ---- real TCP transport end-to-end ----

func TestRuntimeOverTCP(t *testing.T) {
	addrs := testport.Addrs(2)
	trs := make([]*transport.TCP, 2)
	errs := make([]error, 2)
	var init func(i int) = func(i int) { trs[i], errs[i] = transport.NewTCP(i, addrs) }
	done0 := make(chan struct{})
	go func() { init(0); close(done0) }()
	init(1)
	<-done0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d transport: %v", i, err)
		}
	}
	rts := make([]*Runtime, 2)
	for i := range rts {
		rts[i] = NewRuntime(Config{PEs: 2, Transport: trs[i]})
		rts[i].Register(&SumWorker{})
	}
	finished := make(chan struct{})
	go func() {
		rts[1].Start(nil)
		finished <- struct{}{}
	}()
	go func() {
		rts[0].Start(func(self *Chare) {
			defer self.Exit()
			g := self.NewGroup(&SumWorker{})
			f := self.CreateFuture()
			g.Call("Work", 2, f)
			want := 2 * (0 + 1 + 2 + 3)
			if got := f.Get(); got != want {
				t.Errorf("TCP-backed reduction = %v, want %d", got, want)
			}
		})
		finished <- struct{}{}
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatal("TCP job did not complete")
		}
	}
	trs[0].Close()
	trs[1].Close()
}

// ---- message accounting sanity ----

func TestMsgCounts(t *testing.T) {
	rt := runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&Hello{})
	}, func(self *Chare) {
		p := self.NewChare(&Hello{}, PE(1))
		for i := 0; i < 5; i++ {
			p.Call("SayHi", "x")
		}
		p.CallRet("Greetings").Get()
	})
	local, wire := rt.MsgCounts()
	if local < 6 {
		t.Errorf("local message count %d too low", local)
	}
	if wire != 0 {
		t.Errorf("single-node job sent %d wire messages", wire)
	}
}

// ---- sparse array with explicit placement ----

func TestSparseInsertAtExplicitPE(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&PEReporter{})
	}, func(self *Chare) {
		arr := self.NewSparseArray(&PEReporter{}, 1)
		for i := 0; i < 4; i++ {
			arr.InsertAt(PE(3-i), []int{i})
		}
		arr.DoneInserting()
		for i := 0; i < 4; i++ {
			if got := arr.At(i).CallRet("WhichPE").Get(); got != 3-i {
				t.Errorf("element %d on PE %v, want %d", i, got, 3-i)
			}
		}
	})
}

// ---- Projections-style tracing integration ----

func TestTraceRecordsEMsAndSends(t *testing.T) {
	tr := trace.New(2)
	runJob(t, Config{PEs: 2, Trace: tr}, func(rt *Runtime) {
		rt.Register(&Hello{})
	}, func(self *Chare) {
		p := self.NewChare(&Hello{}, PE(1))
		for i := 0; i < 5; i++ {
			p.Call("SayHi", "x")
		}
		p.CallRet("Greetings").Get()
	})
	s := tr.Summarize()
	if s.NumEMs < 6 { // 5 SayHi + Greetings (+ threaded main segments)
		t.Errorf("traced %d entry methods, want >= 6", s.NumEMs)
	}
	if s.Sends < 6 {
		t.Errorf("traced %d sends, want >= 6", s.Sends)
	}
	foundSayHi := false
	for _, m := range s.Methods {
		if m.Chare == "Hello" && m.Method == "SayHi" && m.Count == 5 {
			foundSayHi = true
		}
	}
	if !foundSayHi {
		t.Errorf("per-method stats missing Hello.SayHi x5: %+v", s.Methods)
	}
}

// ---- sparse reductions racing DoneInserting ----

type EagerSparse struct{ Chare }

// Init contributes immediately on insertion, so contributions reach the
// reduction root before the global element count is known; the root must
// hold the reduction until DoneInserting fixes the total.
func (e *EagerSparse) Init(done Future) {
	e.Contribute(e.ThisIndex[0], SumReducer, done)
}

func TestSparseReductionBeforeDoneInserting(t *testing.T) {
	runJob(t, Config{PEs: 4}, func(rt *Runtime) {
		rt.Register(&EagerSparse{})
	}, func(self *Chare) {
		done := self.CreateFuture()
		arr := self.NewSparseArray(&EagerSparse{}, 1)
		want := 0
		for i := 0; i < 7; i++ {
			arr.Insert([]int{i * 3}, done)
			want += i * 3
		}
		arr.DoneInserting()
		if got := done.Get(); got != want {
			t.Errorf("eager sparse reduction = %v, want %d", got, want)
		}
	})
}

// ---- dynamic dispatch honours when-conditions too ----

func TestWhenConditionDynamicDispatch(t *testing.T) {
	runJob(t, Config{PEs: 2, Dispatch: DynamicDispatch}, func(rt *Runtime) {
		rt.Register(&Sequenced{},
			When("Recv", "self.iter == iter"),
			ArgNames("Recv", "iter", "val"),
			Threaded("Drive"))
	}, func(self *Chare) {
		s := self.NewChare(&Sequenced{}, PE(1))
		s.Call("Recv", 1, 2)
		s.Call("Recv", 0, 1)
		f := self.CreateFuture()
		s.Call("Drive", 2, f)
		// Drive waits for len(vals)==3; send the last one late
		s.Call("Recv", 2, 3)
		got := f.Get().([]any)
		for i, want := range []int{1, 2, 3} {
			if got[i] != want {
				t.Errorf("vals[%d] = %v, want %d", i, got[i], want)
			}
		}
	})
}

// ---- nested proxies inside struct arguments across nodes ----

type JobSpec struct {
	Name   string
	Target Proxy
	Notify Future
}

type Submitter struct{ Chare }

// Run uses a proxy and future nested inside a struct argument that crossed
// a node boundary — exercising the deep rebind path.
func (s *Submitter) Run(spec JobSpec) {
	spec.Target.Call("SayHi", "job:"+spec.Name)
	spec.Notify.Send(spec.Name + "-done")
}

func TestNestedProxyInStructAcrossNodes(t *testing.T) {
	helloMu.Lock()
	helloLog = nil
	helloMu.Unlock()
	runMultiNode(t, 2, 1, nil, func(rt *Runtime) {
		rt.Register(&Hello{})
		rt.Register(&Submitter{})
		ser.RegisterType(JobSpec{})
	}, func(self *Chare) {
		h := self.NewChare(&Hello{}, PE(0))
		sub := self.NewChare(&Submitter{}, PE(1)) // remote node
		f := self.CreateFuture()
		sub.Call("Run", JobSpec{Name: "j1", Target: h, Notify: f})
		if got := f.Get(); got != "j1-done" {
			t.Errorf("nested future result = %v", got)
		}
		// wait for the nested-proxy SayHi to land
		self.WaitQD()
	})
	helloMu.Lock()
	defer helloMu.Unlock()
	if len(helloLog) != 1 || helloLog[0] != "job:j1" {
		t.Errorf("nested proxy call: %v", helloLog)
	}
}

// ---- per-chare load accounting ----

type LoadProbe struct{ Chare }

func (l *LoadProbe) Burn(ms int) {
	end := time.Now().Add(time.Duration(ms) * time.Millisecond)
	for time.Now().Before(end) {
	}
}

func (l *LoadProbe) MyLoad(done Future) { done.Send(l.ctx().el.load.Seconds()) }

func TestChareLoadAccounting(t *testing.T) {
	runJob(t, Config{PEs: 2}, func(rt *Runtime) {
		rt.Register(&LoadProbe{})
	}, func(self *Chare) {
		p := self.NewChare(&LoadProbe{}, PE(1))
		p.Call("Burn", 20)
		f := self.CreateFuture()
		p.Call("MyLoad", f)
		load := f.Get().(float64)
		if load < 0.015 {
			t.Errorf("measured load %.4fs, want >= 0.015s", load)
		}
	})
}
