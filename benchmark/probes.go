package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/bench"
	"charmgo/internal/core"
	"charmgo/internal/darray"
	"charmgo/internal/elastic"
	"charmgo/internal/expr"
	"charmgo/internal/ser"
	"charmgo/internal/stencil"
	"charmgo/internal/transport"
)

// A probe times calls into one layer's public functions, in isolation, with
// the inputs the workloads use. Probes are not part of the timed passes;
// they give the per-layer metrics and the rows of the budgets. README.md
// lists which end-to-end metric each one is expected to move.
type probe struct {
	metricDef
	run func(pc *probeCtx) (float64, error)
}

// probeCtx carries a probe's time allowance and its place in the span log.
type probeCtx struct {
	dur        time.Duration // measuring time per probe
	minBatches int
	spans      *spanLog
	parent     int // the probe's own span
	req        int
}

// sample runs fn — a timed batch of calls into the layer, which reports how
// many calls it made and how long they took — for pc.dur after one warm-up
// batch, records a span around each batch, and returns the median
// nanoseconds per call over the batches.
func (pc *probeCtx) sample(fn func() (calls int64, d time.Duration)) float64 {
	batch := func(name string) float64 {
		id := pc.spans.begin(name, pc.parent, pc.req)
		calls, d := fn()
		pc.spans.end(id, calls)
		return float64(d.Nanoseconds()) / float64(calls)
	}
	batch("warmup")
	var per []float64
	for end := time.Now().Add(pc.dur); len(per) < pc.minBatches || time.Now().Before(end); {
		per = append(per, batch("batch"))
	}
	return median(per)
}

// perCall is sample for a batch that is simply n calls timed from outside.
func (pc *probeCtx) perCall(n int, fn func(n int)) float64 {
	return pc.sample(func() (int64, time.Duration) {
		t0 := time.Now()
		fn(n)
		return int64(n), time.Since(t0)
	})
}

// withRuntime runs entry as the main chare of a fresh single-node runtime
// with 2 PEs and returns when the job has exited.
func withRuntime(cfg core.Config, register func(*core.Runtime), entry func(self *core.Chare)) {
	cfg.PEs = 2
	rt := core.NewRuntime(cfg)
	register(rt)
	rt.Start(func(self *core.Chare) {
		defer self.Exit()
		entry(self)
	})
}

// withCluster runs entry on node 0 of an n-node job (1 PE per node) over
// the given mesh and tears the job down.
func withCluster(trs []transport.Transport, register func(*core.Runtime), entry func(self *core.Chare)) {
	rts := make([]*core.Runtime, len(trs))
	for i := range rts {
		rts[i] = core.NewRuntime(core.Config{PEs: 1, Transport: trs[i]})
		register(rts[i])
	}
	var wg sync.WaitGroup
	for i := 1; i < len(rts); i++ {
		wg.Add(1)
		go func(rt *core.Runtime) {
			defer wg.Done()
			rt.Start(nil)
		}(rts[i])
	}
	rts[0].Start(func(self *core.Chare) {
		defer self.Exit()
		entry(self)
	})
	wg.Wait()
	closeAll(trs)
}

func registerPing(rt *core.Runtime) { rt.Register(&bench.Ping{}) }

// Inputs shared with the workloads.
var (
	argsSmall = []any{7}                                          // bench.Ping.Ping(int)
	argsKV    = []any{"key-0001", string(make([]byte, kvValLen))} // Shard.Put(key, val)
	argsFace  = []any{make([]float64, 4096)}                      // one 64×64 ghost face
)

const faceKiB = 4096 * 8 / 1024

func encodeProbe(args []any, div float64) func(*probeCtx) (float64, error) {
	return func(pc *probeCtx) (float64, error) {
		buf := make([]byte, 0, 64<<10)
		var err error
		ns := pc.perCall(4096, func(n int) {
			for i := 0; i < n; i++ {
				if buf, err = ser.AppendArgs(buf[:0], args); err != nil {
					return
				}
			}
		})
		return ns / div, err
	}
}

func decodeProbe(args []any, alias bool, div float64) func(*probeCtx) (float64, error) {
	return func(pc *probeCtx) (float64, error) {
		data, err := ser.AppendArgs(nil, args)
		if err != nil {
			return 0, err
		}
		dec := ser.DecodeArgs
		if alias {
			dec = ser.DecodeArgsAlias
		}
		ns := pc.perCall(4096, func(n int) {
			for i := 0; i < n; i++ {
				if _, _, err = dec(data); err != nil {
					return
				}
			}
		})
		return ns / div, err
	}
}

// probeAllocsSmall counts heap allocations of one encode+decode of Ping's
// (int) argument list.
func probeAllocsSmall(pc *probeCtx) (float64, error) {
	const n = 1 << 16
	buf := make([]byte, 0, 64)
	var err error
	var m0, m1 runtime.MemStats
	id := pc.spans.begin("batch", pc.parent, pc.req)
	runtime.ReadMemStats(&m0)
	for i := 0; i < n && err == nil; i++ {
		if buf, err = ser.AppendArgs(buf[:0], argsSmall); err == nil {
			_, _, err = ser.DecodeArgs(buf)
		}
	}
	runtime.ReadMemStats(&m1)
	pc.spans.end(id, n)
	return float64(m1.Mallocs-m0.Mallocs) / n, err
}

// firstErr keeps the first error a transport handler goroutine reports, for
// the probe's own goroutine to pick up.
type firstErr chan error

func (f firstErr) set(err error) {
	select {
	case f <- err:
	default:
	}
}

// pingPong measures the round trip of a 64-byte frame between two raw
// transport endpoints. Both handlers bounce the frame straight back from
// the transport's own receive goroutine, n round trips in a row, so no
// goroutine hand-off sits inside the measured path: a floor for anything
// the runtime does across the same transport.
func pingPong(pc *probeCtx, trs []transport.Transport) (float64, error) {
	defer closeAll(trs)
	done := make(chan struct{}, 1)
	failed := make(firstErr, 1)
	bounce := func(tr transport.Transport, to int, payload []byte) {
		if err := tr.(transport.BufSender).SendBuf(to, append(transport.GetBuf(), payload...)); err != nil {
			failed.set(err)
		}
	}
	var left atomic.Int64 // round trips still to go (the socket orders the accesses, which the race detector cannot see)
	trs[1].SetHandler(func(from int, frame []byte) { bounce(trs[1], from, frame) })
	trs[0].SetHandler(func(from int, frame []byte) {
		if left.Add(-1) > 0 {
			bounce(trs[0], from, frame)
		} else {
			done <- struct{}{}
		}
	})
	payload := make([]byte, 64)
	var err error
	ns := pc.perCall(256, func(n int) {
		if err != nil {
			return
		}
		left.Store(int64(n))
		bounce(trs[0], 1, payload)
		select {
		case <-done:
		case err = <-failed:
		}
	})
	return ns / 1e3, err
}

func probeTCPRTT(pc *probeCtx) (float64, error) {
	trs, err := tcpMesh(2)
	if err != nil {
		return 0, err
	}
	return pingPong(pc, trs)
}

func probeMemRTT(pc *probeCtx) (float64, error) { return pingPong(pc, memMesh(2)) }

func probeTCPMiB(pc *probeCtx) (float64, error) {
	fps, err := oneWay(256<<10, 8)(pc)
	return fps / 4, err // 4 frames of 256 KiB per MiB
}

// oneWay measures frames per second of `size`-byte frames from node 0 to
// node 1 with `credit` frames in flight: node 1 acknowledges every credit-th
// frame and node 0 waits for it.
func oneWay(size, credit int) func(*probeCtx) (float64, error) {
	return func(pc *probeCtx) (float64, error) {
		trs, err := tcpMesh(2)
		if err != nil {
			return 0, err
		}
		defer closeAll(trs)
		ack := make(chan struct{}, 1)
		failed := make(firstErr, 1)
		got := 0
		trs[1].SetHandler(func(from int, _ []byte) {
			if got++; got%credit == 0 {
				if err := trs[1].Send(from, []byte{1}); err != nil {
					failed.set(err)
				}
			}
		})
		trs[0].SetHandler(func(int, []byte) { ack <- struct{}{} })
		payload := make([]byte, size)
		bs := trs[0].(transport.BufSender)
		ns := pc.perCall(credit, func(n int) {
			for i := 0; i < n && err == nil; i++ {
				err = bs.SendBuf(1, append(transport.GetBuf(), payload...))
			}
			if err != nil {
				return
			}
			select {
			case <-ack:
			case err = <-failed:
			}
		})
		return 1e9 / ns, err
	}
}

func probeMeshConnect(pc *probeCtx) (float64, error) {
	var err error
	ns := pc.perCall(1, func(int) {
		var trs []transport.Transport
		if trs, err = tcpMesh(2); err == nil {
			closeAll(trs)
		}
	})
	return ns / 1e6, err
}

// floodLocal measures PE0→PE1 fire-and-forget Ping inside one node, by
// reference, credit-bounded like the stream workload.
func floodLocal(mode core.DispatchMode) func(*probeCtx) (float64, error) {
	return func(pc *probeCtx) (float64, error) {
		var ns float64
		var err error
		withRuntime(core.Config{Dispatch: mode}, registerPing, func(self *core.Chare) {
			p := self.NewChare(&bench.Ping{}, core.PE(1))
			sent := 0
			ns = pc.perCall(streamCredit, func(n int) {
				for i := 0; i < n; i++ {
					p.Call("Ping", 1)
				}
				sent += n
				f := self.CreateFuture()
				p.Call("Count", f)
				if got := f.Get(); got != sent {
					err = fmt.Errorf("local flood: count %v, want %d", got, sent)
				}
			})
		})
		return ns, err
	}
}

// countRTT is the entry method body of the round-trip probes: ask the chare
// on PE 1 for its count through a future and wait (park, wake).
func countRTT(pc *probeCtx, out *float64) func(self *core.Chare) {
	return func(self *core.Chare) {
		p := self.NewChare(&bench.Ping{}, core.PE(1))
		*out = pc.perCall(256, func(n int) {
			for i := 0; i < n; i++ {
				f := self.CreateFuture()
				p.Call("Count", f)
				f.Get()
			}
		}) / 1e3
	}
}

func probeLocalRTT(pc *probeCtx) (float64, error) {
	var us float64
	withRuntime(core.Config{}, registerPing, countRTT(pc, &us))
	return us, nil
}

func probeRemoteRTTTCP(pc *probeCtx) (float64, error) {
	trs, err := tcpMesh(2)
	if err != nil {
		return 0, err
	}
	var us float64
	withCluster(trs, registerPing, countRTT(pc, &us))
	return us, nil
}

// probeExtRTTMem is the kvservice request path without the service: a plain
// goroutine calls Shard.Get on an element hosted by another Mem node through
// Proxy.ExtCall and waits on the reply channel.
func probeExtRTTMem(pc *probeCtx) (float64, error) {
	trs := memMesh(2)
	rts := make([]*core.Runtime, 2)
	for i := range rts {
		rts[i] = core.NewRuntime(core.Config{PEs: 1, Transport: trs[i]})
		rts[i].Register(&elastic.Shard{})
	}
	ready := make(chan core.Proxy, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); rts[1].Start(nil) }()
	go func() {
		defer wg.Done()
		rts[0].Start(func(self *core.Chare) {
			ready <- self.NewArray(&elastic.Shard{}, []int{2}) // element 1 lives on node 1
			self.Wait("1 == 2")                                // park until Exit
		})
	}()
	remote := (<-ready).At(1)
	var err error
	ns := pc.perCall(256, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			ch, ref := remote.ExtCall("Get", "key-0001")
			select {
			case v := <-ch:
				if v != "" {
					err = fmt.Errorf("ext call: got %v, want empty string", v)
				}
			case <-time.After(10 * time.Second): // a lost reply must not hang the probe
				rts[0].DropExtFuture(ref)
				err = errors.New("ext call: no reply within 10 s")
			}
		}
	})
	for _, rt := range rts {
		rt.Exit()
	}
	wg.Wait()
	closeAll(trs)
	return ns / 1e3, err
}

// probeRemoteInvokeMem is the stream_tcp flood over a MemNetwork: the wire
// path (codecs, aggregator, receive dispatch) without the kernel.
func probeRemoteInvokeMem(pc *probeCtx) (float64, error) {
	s, err := startStream(memMesh(2), bootOpts{seed: 1})
	if err != nil {
		return 0, err
	}
	var failed int64
	ns := pc.sample(func() (int64, time.Duration) {
		s.cmd <- 50 * time.Millisecond
		r := <-s.res
		failed += r.w.failed
		if r.err != nil {
			err = r.err
		}
		return r.w.ops, r.w.dur
	})
	_, cerr := s.close()
	if failed > 0 {
		err = errors.Join(err, fmt.Errorf("mem flood: %d messages unaccounted for", failed))
	}
	return ns, errors.Join(err, cerr)
}

// probeArrayCreate times NewArray of 10 000 Ping elements until an element
// on each PE has answered (per-sender FIFO puts the answer behind the
// creation). A fresh runtime per sample lets the GC reclaim the arrays.
func probeArrayCreate(pc *probeCtx) (float64, error) {
	const elems = 10000
	ns := pc.sample(func() (int64, time.Duration) {
		var d time.Duration
		withRuntime(core.Config{}, registerPing, func(self *core.Chare) {
			t0 := time.Now()
			arr := self.NewArray(&bench.Ping{}, []int{elems})
			f := self.CreateFuture(2)
			arr.At(0).Call("Count", f)
			arr.At(elems-1).Call("Count", f)
			f.Get()
			d = time.Since(t0)
		})
		return elems, d
	})
	return ns / 1e3, nil
}

// probeReduce256 times a broadcast plus sum reduction over a 256-element
// array on 2 PEs (darray.Vector.Sum).
func probeReduce256(pc *probeCtx) (float64, error) {
	var ns float64
	var err error
	withRuntime(core.Config{}, darray.Register, func(self *core.Chare) {
		v := darray.New(self, 256, 256)
		v.Fill(1)
		ns = pc.perCall(16, func(n int) {
			for i := 0; i < n; i++ {
				if s := v.Sum(); s != 256 {
					err = fmt.Errorf("reduce: sum %v, want 256", s)
				}
			}
		})
	})
	return ns / 1e3, err
}

// probeBcastReduce times a tree broadcast of a 64 KiB payload to one chunk
// on each of 4 Mem nodes plus the empty reduction that acknowledges it.
func probeBcastReduce(pc *probeCtx) (float64, error) {
	const nodes, chunk = 4, 8192
	var ns float64
	withCluster(memMesh(nodes), darray.Register, func(self *core.Chare) {
		v := darray.New(self, nodes*chunk, nodes)
		payload := make([]float64, chunk)
		ns = pc.perCall(8, func(n int) {
			for i := 0; i < n; i++ {
				done := self.CreateFuture()
				v.Proxy.Call("RecvAxpy", 0.0, payload, done)
				done.Get()
			}
		})
	})
	return ns / 1e3, nil
}

// whenEnv is the environment core builds for stencil.Block's
// `when "self.iter == iter"`: self is the chare, iter the message argument.
type whenEnv struct {
	self *stencil.Block
	iter int
}

func (e whenEnv) Lookup(name string) (any, bool) {
	switch name {
	case "self":
		return e.self, true
	case "iter":
		return e.iter, true
	}
	return nil, false
}

const whenSrc = "self.iter == iter"

func probeWhenEval(pc *probeCtx) (float64, error) {
	e, err := expr.Compile(whenSrc)
	if err != nil {
		return 0, err
	}
	env := whenEnv{self: &stencil.Block{Iter: 5}, iter: 5}
	ns := pc.perCall(4096, func(n int) {
		for i := 0; i < n; i++ {
			ok, evalErr := e.EvalBool(env)
			if evalErr != nil || !ok {
				err = fmt.Errorf("when: %v, %v", ok, evalErr)
			}
		}
	})
	return ns, err
}

func probeCompile(pc *probeCtx) (float64, error) {
	var err error
	ns := pc.perCall(256, func(n int) {
		for i := 0; i < n; i++ {
			if _, err = expr.Compile(whenSrc); err != nil {
				return
			}
		}
	})
	return ns / 1e3, err
}

func seqParams(iters int) stencil.Params {
	return stencil.Params{GridX: stencilGrid, GridY: stencilGrid, GridZ: stencilGrid, BX: 1, BY: 1, BZ: 1, Iters: iters}
}

// probeKernel derives the Jacobi kernel's time per cell from the public
// sequential solver: (time of 20 steps − time of 0 steps) ÷ (20 × 64³).
func probeKernel(pc *probeCtx) (float64, error) {
	const iters = 20
	var err error
	time0 := pc.perCall(1, func(int) { _, err = stencil.RunSequential(seqParams(0)) })
	timeN := pc.perCall(1, func(int) { _, err = stencil.RunSequential(seqParams(iters)) })
	cells := float64(stencilGrid * stencilGrid * stencilGrid)
	return (timeN - time0) / (iters * cells), err
}

func probeSeqSteps(pc *probeCtx) (float64, error) {
	const iters = 100
	var err error
	ns := pc.perCall(1, func(int) { _, err = stencil.RunSequential(seqParams(iters)) })
	return iters * 1e9 / ns, err
}

// probeMPISteps is the paper's Fig. 1 comparator: the mini-MPI version, two
// ranks, the coarse decomposition.
func probeMPISteps(pc *probeCtx) (float64, error) {
	const iters = 100
	p := seqParams(iters)
	p.BX = 2
	var err error
	ns := pc.perCall(1, func(int) { _, err = stencil.RunMPI(p) })
	return iters * 1e9 / ns, err
}

func probeGateAdmit(pc *probeCtx) (float64, error) {
	g := elastic.NewGate(nil, elastic.GateOptions{Depth: func() int { return 0 }})
	var err error
	ns := pc.perCall(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			if err = g.Admit(); err != nil {
				return
			}
		}
	})
	return ns, err
}

// probeTimer is the cost of the time.Now pair that brackets every op whose
// latency the harness records; it must stay below 2 % of the shortest such
// op (a kv_closed request).
func probeTimer(pc *probeCtx) (float64, error) {
	var sink time.Duration
	ns := pc.perCall(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sink += time.Since(t0)
		}
	})
	if sink < 0 {
		return 0, errors.New("clock went backwards")
	}
	return ns, nil
}

// probes lists the isolated layer probes in the order they run.
var probes = []probe{
	{metricDef{"ser.encode_small_ns", "ns", false, 0}, encodeProbe(argsSmall, 1)},
	{metricDef{"ser.decode_small_ns", "ns", false, 0}, decodeProbe(argsSmall, false, 1)},
	{metricDef{"ser.allocs_per_roundtrip_small", "count", false, 0}, probeAllocsSmall},
	{metricDef{"ser.encode_kv_ns", "ns", false, 0}, encodeProbe(argsKV, 1)},
	{metricDef{"ser.decode_kv_ns", "ns", false, 0}, decodeProbe(argsKV, false, 1)},
	{metricDef{"ser.encode_face_ns_per_kib", "ns/KiB", false, 0}, encodeProbe(argsFace, faceKiB)},
	{metricDef{"ser.decode_face_ns_per_kib", "ns/KiB", false, 0}, decodeProbe(argsFace, true, faceKiB)},
	{metricDef{"transport.tcp_rtt_us", "us", false, 0}, probeTCPRTT},
	{metricDef{"transport.tcp_frames_per_s_8k", "1/s", true, 0}, oneWay(8<<10, 64)},
	{metricDef{"transport.tcp_mib_per_s_256k", "MiB/s", true, 0}, probeTCPMiB},
	{metricDef{"transport.mem_rtt_us", "us", false, 0}, probeMemRTT},
	{metricDef{"transport.tcp_mesh_connect_ms", "ms", false, 0}, probeMeshConnect},
	{metricDef{"core.local_invoke_ns", "ns", false, 0}, floodLocal(core.StaticDispatch)},
	{metricDef{"core.dispatch_dynamic_ns", "ns", false, 0}, floodLocal(core.DynamicDispatch)},
	{metricDef{"core.local_rtt_us", "us", false, 0}, probeLocalRTT},
	{metricDef{"core.remote_rtt_tcp_us", "us", false, 0}, probeRemoteRTTTCP},
	{metricDef{"core.ext_rtt_mem_us", "us", false, 0}, probeExtRTTMem},
	{metricDef{"core.remote_invoke_mem_ns", "ns", false, 0}, probeRemoteInvokeMem},
	{metricDef{"core.array_create_us_per_elem", "us", false, 0}, probeArrayCreate},
	{metricDef{"core.reduce_us_256", "us", false, 0}, probeReduce256},
	{metricDef{"core.bcast_reduce_64k_np4_us", "us", false, 0}, probeBcastReduce},
	{metricDef{"expr.when_eval_ns", "ns", false, 0}, probeWhenEval},
	{metricDef{"expr.compile_us", "us", false, 0}, probeCompile},
	{metricDef{"stencil.kernel_ns_per_cell", "ns", false, 0}, probeKernel},
	{metricDef{"stencil.seq_steps_per_s", "1/s", true, 0}, probeSeqSteps},
	{metricDef{"stencil.mpi_steps_per_s", "1/s", true, 0}, probeMPISteps},
	{metricDef{"elastic.gate_admit_ns", "ns", false, 0}, probeGateAdmit},
	{metricDef{"harness.timer_ns", "ns", false, 0}, probeTimer},
}

// runProbes runs every probe for about dur each and returns name → value.
func runProbes(dur time.Duration, minBatches int, spans *spanLog, root int) (map[string]float64, error) {
	out := map[string]float64{}
	for i, p := range probes {
		pc := &probeCtx{dur: dur, minBatches: minBatches, spans: spans, req: i + 1}
		pc.parent = spans.begin("probe:"+p.name, root, pc.req)
		v, err := p.run(pc)
		spans.end(pc.parent, 0)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = v
	}
	return out, nil
}
