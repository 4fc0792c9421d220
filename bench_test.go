package charmgo_test

// Benchmark harness: one benchmark per paper figure plus the ablation
// microbenchmarks listed in DESIGN.md (section 4). The Fig* benchmarks run
// the REAL runtime at host scale; the Fig*_Simulated benchmarks regenerate
// the paper-scale figures through the calibrated cluster simulator. Run:
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the same figures as paper-style series.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"charmgo"
	"charmgo/internal/bench"
	"charmgo/internal/core"
	"charmgo/internal/expr"
	"charmgo/internal/lb"
	"charmgo/internal/leanmd"
	"charmgo/internal/mpi"
	"charmgo/internal/ser"
	"charmgo/internal/simcluster"
	"charmgo/internal/stencil"
	"charmgo/internal/testport"
	"charmgo/internal/transport"
)

// ---- Figure 1/2: stencil3d, real runtime (host scale) ----

func benchStencil(b *testing.B, pes int, cfg charmgo.Config, useMPI bool) {
	p := stencil.Params{GridX: 32, GridY: 32, GridZ: 32, BX: 2, BY: 2, BZ: 1, Iters: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r stencil.Result
		var err error
		if useMPI {
			r, err = stencil.RunMPI(p)
		} else {
			r, err = stencil.RunCharm(p, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TimePerStepMS, "ms/step")
	}
}

func BenchmarkFig1Stencil(b *testing.B) {
	b.Run("charm-static", func(b *testing.B) {
		benchStencil(b, 4, charmgo.Config{PEs: 4}, false)
	})
	b.Run("charm-dynamic", func(b *testing.B) {
		benchStencil(b, 4, charmgo.Config{PEs: 4, Dispatch: charmgo.DynamicDispatch}, false)
	})
	b.Run("mini-mpi", func(b *testing.B) {
		benchStencil(b, 4, charmgo.Config{}, true)
	})
	b.Run("charm-channels", func(b *testing.B) {
		p := stencil.Params{GridX: 32, GridY: 32, GridZ: 32, BX: 2, BY: 2, BZ: 1, Iters: 20}
		for i := 0; i < b.N; i++ {
			r, err := stencil.RunCharmChannels(p, charmgo.Config{PEs: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.TimePerStepMS, "ms/step")
		}
	})
}

func BenchmarkFig2StrongScaling(b *testing.B) {
	for _, pes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			p := stencil.Params{GridX: 32, GridY: 32, GridZ: 32, BX: 2, BY: 2, BZ: 2, Iters: 20}
			for i := 0; i < b.N; i++ {
				r, err := stencil.RunCharm(p, charmgo.Config{PEs: pes})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.TimePerStepMS, "ms/step")
			}
		})
	}
}

// ---- Figure 3: imbalanced stencil with and without LB (real runtime) ----

func BenchmarkFig3ImbalancedLB(b *testing.B) {
	base := stencil.Params{GridX: 32, GridY: 32, GridZ: 32, BX: 2, BY: 4, BZ: 2,
		Iters: 60, Imbalance: true}
	b.Run("no-lb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := stencil.RunCharm(base, charmgo.Config{PEs: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MaxOverAvg, "max/avg-load")
		}
	})
	b.Run("greedy-lb", func(b *testing.B) {
		p := base
		p.LBPeriod = 30
		for i := 0; i < b.N; i++ {
			r, err := stencil.RunCharm(p, charmgo.Config{PEs: 4, LB: lb.Greedy{}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MaxOverAvg, "max/avg-load")
		}
	})
}

// ---- Figure 4: LeanMD, real runtime ----

func BenchmarkFig4LeanMD(b *testing.B) {
	p := leanmd.DefaultParams()
	p.Steps = 5
	for _, mode := range []struct {
		name string
		d    charmgo.DispatchMode
	}{{"charm-static", charmgo.StaticDispatch}, {"charm-dynamic", charmgo.DynamicDispatch}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := leanmd.RunCharm(p, charmgo.Config{PEs: 4, Dispatch: mode.d})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.TimePerStepMS, "ms/step")
			}
		})
	}
}

// ---- Simulated paper-scale figures ----
//
// These benchmark scaled-down versions of the cluster simulations; the full
// 1k-65k-core figures are regenerated by `go run ./cmd/experiments` (they
// take tens of seconds each, too slow for -bench=.).

func BenchmarkFigSimulated(b *testing.B) {
	cal := simcluster.Default()
	b.Run("fig1-weak-scaled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := simcluster.RunStencil(simcluster.StencilConfig{
				Machine: cal.MachineFor(simcluster.ImplCharm, 1024), BlocksPerPE: 1,
				Block: [3]int{64, 64, 64}, Iters: 3, KernelSecPerCell: cal.KernelSecPerCell,
			})
			b.ReportMetric(r.TimePerStepMS, "ms/step")
		}
	})
	b.Run("fig2-strong-scaled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := simcluster.RunStencil(simcluster.StencilConfig{
				Machine: cal.MachineFor(simcluster.ImplCharm, 128), BlocksPerPE: 1,
				Block: [3]int{32, 32, 64}, Iters: 10, KernelSecPerCell: cal.KernelSecPerCell,
			})
			b.ReportMetric(r.TimePerStepMS, "ms/step")
		}
	})
	b.Run("fig3-lb-scaled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := simcluster.RunStencil(simcluster.StencilConfig{
				Machine: cal.MachineFor(simcluster.ImplCharm, 32), BlocksPerPE: 4,
				Block: [3]int{16, 16, 16}, Iters: 90, KernelSecPerCell: cal.KernelSecPerCell,
				Imbalance: true, LBPeriod: 30, LB: lb.Greedy{},
			})
			b.ReportMetric(r.TimePerStepMS, "ms/step")
		}
	})
	b.Run("fig4-leanmd-scaled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := simcluster.RunLeanMD(simcluster.LeanMDConfig{
				Machine: cal.MachineFor(simcluster.ImplCharmPy, 512),
				Cells:   [3]int{10, 10, 10}, PerCell: 40, Steps: 2,
				PairCostSec: cal.PairCostSec, IntegrateCostSec: 10 * cal.PairCostSec,
			})
			b.ReportMetric(r.TimePerStepMS, "ms/step")
		}
	})
}

// ---- Ablation A1: dispatch cost — typed entry-method handles vs reflection ----

// pingReflect is the reflective baseline: it binds no entry-method handles
// (no core.Bind), so registering it measures the legacy path — MethodByName
// + reflect.Call dispatch, and gob for the struct argument, which gets no
// flat codec either. bench.Ping (internal/bench) is the same chare with
// handles bound.
type pingReflect struct {
	charmgo.Chare
	N int
}

type vecReflect struct {
	X, Y, Z float64
}

func (p *pingReflect) Ping(x int)                { p.N += x }
func (p *pingReflect) PingVec(v vecReflect)      { p.N += int(v.X) }
func (p *pingReflect) Count(done charmgo.Future) { done.Send(p.N) }

func genProto() core.Chareable     { return &bench.Ping{} }
func reflectProto() core.Chareable { return &pingReflect{} }

func benchDispatch(b *testing.B, cfg core.Config, proto func() core.Chareable, method string, arg any) {
	ser.RegisterType(vecReflect{})
	rt := core.NewRuntime(cfg)
	rt.Register(proto())
	b.ReportAllocs()
	rt.Start(func(self *charmgo.Chare) {
		defer self.Exit()
		p := self.NewChare(proto(), charmgo.PE(1))
		// warm-up + synchronize
		w := self.CreateFuture()
		p.Call("Count", w)
		w.Get()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Call(method, arg)
		}
		f := self.CreateFuture()
		p.Call("Count", f)
		f.Get()
		b.StopTimer()
	})
}

// The headline pair: the same bound chare in Compiled mode (typed handles)
// and Interpreted mode (the handles are not attached, so the name travels
// and reflection dispatches it). The gap between the two is the
// paper's per-call interpreted-vs-compiled cost.
func BenchmarkDispatchStatic(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.StaticDispatch}, genProto, "Ping", 1)
}

func BenchmarkDispatchDynamic(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.DynamicDispatch}, genProto, "Ping", 1)
}

func BenchmarkDispatchStaticSerialized(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.StaticDispatch, ForceSerialize: true},
		genProto, "Ping", 1)
}

func BenchmarkDispatchDynamicSerialized(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.DynamicDispatch, ForceSerialize: true},
		genProto, "Ping", 1)
}

// Reflective baselines: an unbound chare dispatches by reflection in either
// mode.
func BenchmarkDispatchReflectDynamic(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.DynamicDispatch}, reflectProto, "Ping", 1)
}

func BenchmarkDispatchReflectSerialized(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.DynamicDispatch, ForceSerialize: true},
		reflectProto, "Ping", 1)
}

// Struct-argument axis: the flat codec vs the gob fallback.
func BenchmarkDispatchStructSerialized(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.StaticDispatch, ForceSerialize: true},
		genProto, "PingVec", bench.Vec3{X: 1})
}

func BenchmarkDispatchStructSerializedReflect(b *testing.B) {
	benchDispatch(b, core.Config{PEs: 2, Dispatch: core.DynamicDispatch, ForceSerialize: true},
		reflectProto, "PingVec", vecReflect{X: 1})
}

// ---- Ablation A7: remote invoke rate (wire path + TRAM aggregation) ----

// remoteCredit is how many invokes benchRemoteRate sends before it waits for
// the running total, as the repo benchmark's stream_tcp does.
const remoteCredit = 16384

// remoteHold blocks its PE in Hold until remoteRelease is closed.
type remoteHold struct {
	core.Chare
}

var remoteRelease chan struct{} // benchRemoteRate's; its runs do not overlap

func (h *remoteHold) Hold() { <-remoteRelease }

// benchRemoteRate floods fine-grained invokes, Ping(arg(i)), from node 0 to
// a chare on node 1 through the aggregator and reports sustained
// messages/second. The target is bench.Ping, so the wire path runs its typed
// entry-method handles' dispatch. The sender waits for the running total
// every remoteCredit messages, which bounds the receiver's backlog and the
// invoke boxes it holds: the figures are the steady state's, per message,
// not a growing backlog's. Before the timer starts, two windows queue whole
// at node 1 while its PE is held: a fresh runtime grows its box stock (and
// batch buffers and runs) to what a window holds in flight, about 3.5 MB,
// which the timed flood would otherwise pay within its first windows.
func benchRemoteRate(b *testing.B, transports []transport.Transport, arg func(i int) int) {
	b.Helper()
	rts := make([]*core.Runtime, 2)
	for i := range rts {
		rts[i] = core.NewRuntime(core.Config{PEs: 1, Transport: transports[i]})
		rts[i].Register(&bench.Ping{})
		rts[i].Register(&remoteHold{})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts[1].Start(nil) // non-zero nodes host PEs; entry runs on node 0
	}()
	b.ReportAllocs()
	rts[0].Start(func(self *charmgo.Chare) {
		defer self.Exit()
		p := self.NewChare(&bench.Ping{}, charmgo.PE(1))
		w := self.CreateFuture()
		p.Call("Count", w)
		w.Get()
		remoteRelease = make(chan struct{})
		self.NewChare(&remoteHold{}, charmgo.PE(1)).Call("Hold")
		for i := 0; i < 2*remoteCredit; i++ {
			p.Call("Ping", 0)
		}
		for rts[1].MailboxDepth() < 2*remoteCredit {
			time.Sleep(100 * time.Microsecond) // node 1 decodes what the backstop flushes
		}
		close(remoteRelease)
		w = self.CreateFuture()
		p.Call("Count", w)
		w.Get()
		b.ResetTimer()
		start := time.Now()
		sum := 0
		for i := 0; i < b.N; i++ {
			x := arg(i)
			p.Call("Ping", x)
			sum += x
			if (i+1)%remoteCredit == 0 {
				f := self.CreateFuture()
				p.Call("Count", f)
				f.Get()
			}
		}
		f := self.CreateFuture()
		p.Call("Count", f)
		if got := f.Get(); got != sum {
			b.Fatalf("remote total = %v, want %d", got, sum)
		}
		elapsed := time.Since(start)
		b.StopTimer()
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msg/s")
	})
	wg.Wait()
	for _, tr := range transports {
		tr.Close()
	}
}

// BenchmarkRemoteInvokeRate is benchRemoteRate's Ping(1) flood over an
// in-memory and a loopback TCP pair with default batching; the TCP arm is
// the shape of the repo benchmark's stream_tcp and what make prof/wire
// profiles.
func BenchmarkRemoteInvokeRate(b *testing.B) {
	memPair := func() []transport.Transport {
		nw := transport.NewMemNetwork(2)
		return []transport.Transport{nw.Endpoint(0), nw.Endpoint(1)}
	}
	tcpPair := func(b *testing.B) []transport.Transport {
		// fresh ports per call: the framework re-invokes with growing b.N, and
		// a re-run must not race a socket in TIME_WAIT
		addrs := testport.Addrs(2)
		out := make([]transport.Transport, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i], errs[i] = transport.NewTCP(i, addrs)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	one := func(int) int { return 1 }
	b.Run("mem-batched", func(b *testing.B) { benchRemoteRate(b, memPair(), one) })
	b.Run("tcp-batched", func(b *testing.B) { benchRemoteRate(b, tcpPair(b), one) })
}

// ---- Ablation A8: spanning-tree collectives (broadcast + reduction) ----

// bcastBench receives job-wide broadcasts and reduces an acknowledgement.
type bcastBench struct {
	charmgo.Chare
}

func (w *bcastBench) Bcast(payload []byte, done charmgo.Future) {
	w.Contribute(len(payload), charmgo.SumReducer, done)
}

// benchBroadcastReduce measures one broadcast+reduction roundtrip across np
// in-memory nodes (1 PE each): node 0 broadcasts the payload to a group and
// blocks on the sum reduction of every element's acknowledgement. Beyond
// latency it reports the root's wire sends per broadcast — the spanning
// tree's O(N-1) -> O(k) contract — and fails the benchmark when the bound is
// violated at np=8.
func benchBroadcastReduce(b *testing.B, np, size int) {
	b.Helper()
	nw := transport.NewMemNetwork(np)
	rts := make([]*core.Runtime, np)
	for i := range rts {
		rts[i] = core.NewRuntime(core.Config{PEs: 1, Transport: nw.Endpoint(i)})
		rts[i].Register(&bcastBench{})
	}
	var wg sync.WaitGroup
	for i := 1; i < np; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rts[i].Start(nil)
		}(i)
	}
	payload := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	rts[0].Start(func(self *charmgo.Chare) {
		defer self.Exit()
		g := self.NewGroup(&bcastBench{})
		w := self.CreateFuture()
		g.Call("Bcast", payload, w) // warm up (collection create, pools)
		w.Get()
		before := rts[0].BcastSends()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			f := self.CreateFuture()
			g.Call("Bcast", payload, f)
			if got := f.Get(); got != size*np {
				b.Fatalf("broadcast+reduce = %v, want %d", got, size*np)
			}
		}
		elapsed := time.Since(start)
		b.StopTimer()
		b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "us/op")
		if np > 1 {
			perOp := float64(rts[0].BcastSends()-before) / float64(b.N)
			b.ReportMetric(perOp, "rootsends/op")
			if np == 8 && perOp > 4 {
				b.Errorf("tree root sends %.1f frames per broadcast at np=8, want <= 4 (arity)", perOp)
			}
		}
	})
	wg.Wait()
	for i := 0; i < np; i++ {
		nw.Endpoint(i).Close()
	}
}

func BenchmarkBroadcastReduce(b *testing.B) {
	for _, size := range []int{64, 64 << 10, 4 << 20} {
		sz := fmt.Sprintf("%dB", size)
		if size >= 1<<20 {
			sz = fmt.Sprintf("%dMB", size>>20)
		} else if size >= 1<<10 {
			sz = fmt.Sprintf("%dKB", size>>10)
		}
		for _, np := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/np=%d/tree", sz, np), func(b *testing.B) {
				benchBroadcastReduce(b, np, size)
			})
		}
	}
}

// ---- Ablation A2: serialization paths ----

func BenchmarkSerDirectF64(b *testing.B) {
	payload := []any{make([]float64, 4096)}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(4096 * 8)
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ser.EncodeArgs(&buf, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ser.DecodeArgs(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

type benchStruct struct {
	A []float64
	B string
	C int
}

func BenchmarkSerGobFallback(b *testing.B) {
	ser.RegisterType(benchStruct{})
	payload := []any{benchStruct{A: make([]float64, 4096), B: "x", C: 1}}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(4096 * 8)
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ser.EncodeArgs(&buf, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ser.DecodeArgs(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation A3: when-condition overhead ----

type whenBench struct {
	charmgo.Chare
	Iter int
	N    int
}

func (w *whenBench) Recv(iter int)             { w.N++; w.Iter++ }
func (w *whenBench) Plain(iter int)            { w.N++; w.Iter++ }
func (w *whenBench) Count(done charmgo.Future) { done.Send(w.N) }

func benchWhen(b *testing.B, method string) {
	rt := core.NewRuntime(core.Config{PEs: 2})
	rt.Register(&whenBench{},
		core.When("Recv", "self.iter == iter"),
		core.ArgNames("Recv", "iter"))
	rt.Start(func(self *charmgo.Chare) {
		defer self.Exit()
		p := self.NewChare(&whenBench{}, charmgo.PE(1))
		w := self.CreateFuture()
		p.Call("Count", w)
		w.Get()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Call(method, i)
		}
		f := self.CreateFuture()
		p.Call("Count", f)
		f.Get()
		b.StopTimer()
	})
}

func BenchmarkWhenConditioned(b *testing.B) { benchWhen(b, "Recv") }
func BenchmarkWhenNone(b *testing.B)        { benchWhen(b, "Plain") }

// ---- Ablation A4: LB strategies on the imbalanced-stencil load profile ----

func BenchmarkLBStrategies(b *testing.B) {
	const nObj, nPE = 4096, 128
	objs := make([]core.LBObject, nObj)
	for i := range objs {
		objs[i] = core.LBObject{
			Key:  fmt.Sprintf("o%05d", i),
			PE:   core.PE(i * nPE / nObj),
			Load: 1 + stencil.Alpha(i, nObj, 0),
		}
	}
	for _, s := range []core.LBStrategy{lb.Greedy{}, lb.Refine{}, lb.Rotate{}, lb.Random{Seed: 1}} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var ratio float64
			for i := 0; i < b.N; i++ {
				assign := s.Assign(objs, nPE)
				ratio = lb.MaxOverAvg(objs, assign, nPE)
			}
			b.ReportMetric(ratio, "max/avg")
		})
	}
}

// ---- Ablation A5: reductions ----

func BenchmarkReductionSum(b *testing.B) {
	for _, pes := range []int{1, 4} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			rt := core.NewRuntime(core.Config{PEs: pes})
			rt.Register(&redBench{})
			rt.Start(func(self *charmgo.Chare) {
				defer self.Exit()
				g := self.NewGroup(&redBench{})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := self.CreateFuture()
					g.Call("Go", f)
					f.Get()
				}
				b.StopTimer()
			})
		})
	}
}

type redBench struct {
	charmgo.Chare
}

func (r *redBench) Go(done charmgo.Future) {
	r.Contribute([]float64{1, 2, 3, 4}, charmgo.SumReducer, done)
}

// ---- supporting microbenchmarks ----

func BenchmarkExprEval(b *testing.B) {
	e := expr.MustCompile("self.iter == iter and self.n < 100")
	env := expr.MapEnv{"self": &whenBench{Iter: 5}, "iter": 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalBool(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPIPingPong(b *testing.B) {
	b.ReportAllocs()
	mpi.Run(2, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, i)
				c.Recv(1, 1)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0)
				c.Send(0, 1, i)
			}
		}
	})
}

func BenchmarkFutureRoundtrip(b *testing.B) {
	rt := core.NewRuntime(core.Config{PEs: 2})
	rt.Register(&futBench{})
	rt.Start(func(self *charmgo.Chare) {
		defer self.Exit()
		p := self.NewChare(&futBench{}, charmgo.PE(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := self.CreateFuture()
			p.Call("Reply", f)
			f.Get()
		}
		b.StopTimer()
	})
}

type futBench struct {
	charmgo.Chare
}

func (f *futBench) Reply(fut charmgo.Future) { fut.Send(1) }
