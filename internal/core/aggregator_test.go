package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/metrics"
	"charmgo/internal/transport"
)

// testTables builds interning tables containing the given method names.
func testTables(names ...string) *wireTables {
	types := map[string]*chareType{}
	ms := make([]*emInfo, len(names))
	byName := map[string]*emInfo{}
	for i, n := range names {
		ms[i] = &emInfo{name: n, id: int32(i)}
		byName[n] = ms[i]
	}
	types["t"] = &chareType{name: "t", methods: ms, byName: byName}
	return buildWireTables(types)
}

func TestMethodInterning(t *testing.T) {
	wt := testTables("Alpha", "Beta", "RecvGhost")
	m := &Message{Kind: mInvoke, CID: 3, Idx: []int{1}, MID: 2, Method: "RecvGhost",
		Src: 0, Args: []any{42}}
	interned := appendMsg(nil, 5, m, wt)
	plain := appendMsg(nil, 5, m, nil)
	if len(interned) >= len(plain) {
		t.Errorf("interned frame (%d bytes) not smaller than string frame (%d bytes)",
			len(interned), len(plain))
	}
	// Interned frames decode with the same tables.
	d, out, err := decodeMsgWT(interned, wt)
	if err != nil || d != 5 || out.Method != "RecvGhost" {
		t.Fatalf("interned decode: dest=%d m=%+v err=%v", d, out, err)
	}
	// String-fallback frames decode with or without tables (interop with a
	// peer that has no table for this name).
	if _, out, err = decodeMsgWT(plain, wt); err != nil || out.Method != "RecvGhost" {
		t.Fatalf("string-frame decode with tables: %+v %v", out, err)
	}
	if _, out, err = decodeMsgWT(plain, nil); err != nil || out.Method != "RecvGhost" {
		t.Fatalf("string-frame decode without tables: %+v %v", out, err)
	}
	// An interned id a decoder cannot resolve must error, not misdispatch.
	if _, _, err = decodeMsgWT(interned, nil); err == nil {
		t.Error("interned frame decoded without tables")
	}
	small := testTables("Alpha")
	if _, _, err = decodeMsgWT(interned, small); err == nil {
		t.Error("out-of-range interned id decoded")
	}
}

func TestWireTablesDeterministic(t *testing.T) {
	a := testTables("Zed", "Alpha", "Mid")
	b := testTables("Mid", "Zed", "Alpha")
	if len(a.names) != len(b.names) {
		t.Fatalf("table sizes differ: %v vs %v", a.names, b.names)
	}
	for i := range a.names {
		if a.names[i] != b.names[i] {
			t.Errorf("id %d: %q vs %q — table not registration-order independent",
				i, a.names[i], b.names[i])
		}
	}
}

// TestAppendMsgAllocs is the allocation regression gate for the hot encode
// path: with a pooled pre-sized buffer and interning tables, serializing an
// invoke must not allocate — through appendMsg, and through appendInvoke from
// a Message on the caller's stack, which is how Proxy.invoke sends.
func TestAppendMsgAllocs(t *testing.T) {
	wt := testTables("Ping")
	args := []any{7, 3.5}
	m := &Message{Kind: mInvoke, CID: 1, Idx: []int{4}, MID: 0, Method: "Ping", Src: 2, Args: args}
	buf := make([]byte, transport.PrefixLen, 512)
	if allocs := testing.AllocsPerRun(200, func() { _ = appendMsg(buf, 9, m, wt) }); allocs > 0 {
		t.Errorf("appendMsg allocates %.1f times per invoke, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(200, func() {
		onStack := Message{Kind: mInvoke, CID: 1, Idx: m.Idx, MID: 0, Method: "Ping", Src: 2}
		_ = appendInvoke(buf, 9, &onStack, args, wt)
	})
	if allocs > 0 {
		t.Errorf("appendInvoke makes its Message escape: %.1f allocations per invoke, want 0", allocs)
	}
}

// TestDecodeArgsAllocs bounds the decode path. Into a recycled box an invoke
// costs what its values cost — the one scalar too large for the runtime's
// small-value cache and the slice argument's backing array with its header —
// and nothing for the message, the index or the argument list; without a
// stock (tests, diagnostics) the box and its first argument slots come on top.
func TestDecodeArgsAllocs(t *testing.T) {
	wt := testTables("Ping")
	m := &Message{Kind: mInvoke, CID: 1, Idx: []int{4}, MID: 0, Method: "Ping",
		Src: 2, Args: []any{7, 3.5, []float64{1, 2, 3, 4}}}
	frame := appendMsg(nil, 9, m, wt)
	stock := &boxStock{list: &boxList{}}
	recycled := testing.AllocsPerRun(200, func() {
		_, got, err := decodeMsgFull(frame, wt, false, nil, stock)
		if err != nil {
			t.Fatal(err)
		}
		stock.giveBack(got) // what the dispatch loop does, minus the chunking
	})
	if recycled > 3 {
		t.Errorf("decoding into a recycled box allocates %.1f times per invoke, want <= 3 (float64, slice header, backing array)", recycled)
	}
	fresh := testing.AllocsPerRun(200, func() {
		if _, _, err := decodeMsgWT(frame, wt); err != nil {
			t.Fatal(err)
		}
	})
	if fresh > recycled+2 {
		t.Errorf("decodeMsgWT allocates %.1f times per invoke, want <= %.0f (a box and its argument slots more)", fresh, recycled+2)
	}
}

// aggWorker is a chare used to flood fine-grained messages across nodes.
type aggWorker struct {
	Chare
	N int
}

func (w *aggWorker) Bump(k int) { w.N += k }

func (w *aggWorker) Total(done Future) {
	w.Contribute(w.N, SumReducer, done)
}

// TestAggregationFlood checks that a high-rate fine-grained workload arrives
// completely through the aggregator, which every node of a multi-node job
// has.
func TestAggregationFlood(t *testing.T) {
	rts := runFlood(t, 2, 2000, nil, nil)
	if rts[0].agg == nil {
		t.Fatal("no aggregator on a multi-node job")
	}
}

// runFlood sends msgs one-way invokes from node 0's main chare round-robin
// over a group spanning 3 nodes and checks every one arrived.
func runFlood(t *testing.T, pes, msgs int, cfgTweak func(*Config), rtTweak func(*Runtime)) []*Runtime {
	const nodes = 3
	return runMultiNode(t, nodes, pes, cfgTweak, func(rt *Runtime) {
		rt.Register(&aggWorker{})
		if rtTweak != nil {
			rtTweak(rt)
		}
	}, func(self *Chare) {
		g := self.NewGroup(&aggWorker{})
		for i := 0; i < msgs; i++ {
			g.At(i%(nodes*pes)).Call("Bump", 1)
		}
		f := self.CreateFuture()
		g.Call("Total", f)
		if got := f.Get(); got != msgs {
			t.Errorf("flood total = %v, want %d", got, msgs)
		}
	})
}

// TestFloodStillBatches guards the mechanism stream_tcp lives on: a sender
// that floods from inside an entry method keeps its PE awake, so the
// sender-side flush rule stays out of the way and batches leave by
// threshold. The backstop is put out of reach (a flood longer than its delay
// would otherwise have it cut partial batches), so the flood also has to
// complete on rules (a)-(c) alone. One PE per node, as in stream_tcp: a
// sibling PE running dry would flush the node's batches from its idle hook.
func TestFloodStillBatches(t *testing.T) {
	reg := metrics.NewRegistry()
	node := 0
	rts := runFlood(t, 1, 60000, func(cfg *Config) {
		if node == 0 {
			cfg.Metrics = reg // node 0 is the flooding sender
		}
		node++
	}, func(rt *Runtime) {
		rt.agg.delay = time.Hour
	})
	flushes := reg.Counter("charmgo_batch_flushes_total", "").Value()
	msgs := reg.Histogram("charmgo_batch_msgs", "").Sum()
	// Every message after the first of a batch repeats the header before it
	// (wire.go), so an 8 KiB batch holds about 1 000 of them; with the full
	// header each it held under 400.
	if flushes == 0 || msgs/flushes < 800 {
		t.Errorf("flood coalesced %d messages into %d batches, want >= 800 per batch", msgs, flushes)
	}
	for i, rt := range rts {
		if n := rt.nBackstop.Load(); n != 0 {
			t.Errorf("node %d: %d batches left by the backstop, want 0", i, n)
		}
	}
}

// recTransport is node 0 of a 2-node job whose peer never answers: it keeps
// a copy of every frame the runtime hands it.
type recTransport struct {
	mu     sync.Mutex
	frames [][]byte
}

func (r *recTransport) NodeID() int                    { return 0 }
func (r *recTransport) NumNodes() int                  { return 2 }
func (r *recTransport) SetHandler(h transport.Handler) {}
func (r *recTransport) Close() error                   { return nil }

func (r *recTransport) Send(node int, frame []byte) error {
	r.mu.Lock()
	r.frames = append(r.frames, append([]byte(nil), frame...))
	r.mu.Unlock()
	return nil
}

func (r *recTransport) sent() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.frames...)
}

// TestSenderFlushesWhenAllPEsParked pins flush rule (c): with every local PE
// parked no idle hook is coming, so a send from outside the schedulers must
// have put its frame on the transport by the time it returns.
func TestSenderFlushesWhenAllPEsParked(t *testing.T) {
	const pes = 2
	rec := &recTransport{}
	rt := NewRuntime(Config{PEs: pes, Transport: rec})
	rt.Register(&aggWorker{})
	rt.agg.delay = time.Hour // only rules (a)-(c) may transmit
	ready := make(chan Proxy, 1)
	go rt.Start(func(self *Chare) {
		ready <- self.NewArray(&aggWorker{}, []int{2 * pes})
		self.Wait("1 == 2") // park the main thread; Exit ends the job
	})
	arr := <-ready
	// One round trip through each local PE drains what the boot left
	// in the mailboxes; from then on no PE is sent anything, so a PE
	// seen blocked in park (flag up, mailbox empty, no wake token)
	// after nIdle counted them all stays there.
	for pe := 0; pe < pes; pe++ {
		ch, _ := arr.At(pe).ExtCall("Bump", 1)
		<-ch
	}
	allParked := func() bool {
		if rt.nIdle.Load() != pes {
			return false
		}
		for _, p := range rt.pes {
			if !p.mbox.parked.Load() || len(p.mbox.wakeCh) != 0 || p.mbox.len() != 0 {
				return false
			}
		}
		return true
	}
	for !allParked() {
		runtime.Gosched()
	}
	before := len(rec.sent())
	arr.At(2*pes-1).ExtCall("Bump", 1) // last element: hosted by node 1
	frames := rec.sent()[before:]
	if len(frames) != 1 {
		t.Fatalf("ExtCall returned with %d new frames on the transport, want 1", len(frames))
	}
	f := frames[0]
	if d := int32(binary.LittleEndian.Uint32(f)); d != batchDest {
		t.Fatalf("frame dest = %d, want a batch frame", d)
	}
	_, m, err := decodeMsgWT(f[8:], rt.wt) // skip batch header + sub-frame length
	if err != nil || m.Method != "Bump" {
		t.Fatalf("batched sub-frame = %+v, %v; want the Bump invoke", m, err)
	}
	if n := rt.nBackstop.Load(); n != 0 {
		t.Errorf("%d batches left by the backstop, want 0", n)
	}
	rt.Exit()
	<-rt.done
}

// TestNoStrandedSendUnderParkRace proves the park/send handshake: a PE
// counts itself parked before its idle-hook flush, a sender reads the count
// after appending. With the backstop out of reach a stranded request is a
// hang. One closed-loop client makes every strand fatal (nobody else's send
// or reply rescues it) and races the node-0 PE, which wakes for each reply
// and parks again just as the client sends; four clients add contention on
// the batch lock.
func TestNoStrandedSendUnderParkRace(t *testing.T) {
	calls := 50000
	if testing.Short() {
		calls = 5000
	}
	for _, clients := range []int{1, 4} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			nw := transport.NewMemNetwork(2)
			var rts [2]*Runtime
			ready := make(chan Proxy, 1)
			for i := range rts {
				rts[i] = NewRuntime(Config{PEs: 1, Transport: nw.Endpoint(i)})
				rts[i].Register(&aggWorker{})
				rts[i].agg.delay = time.Hour
				go rts[i].Start(func(self *Chare) {
					ready <- self.NewArray(&aggWorker{}, []int{2})
					self.Wait("1 == 2")
				})
			}
			remote := (<-ready).At(1) // element 1 lives on node 1
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						ch, _ := remote.ExtCall("Bump", 1)
						<-ch
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Minute): // hang detector, not a latency bound
				t.Fatal("a request was stranded: not every reply arrived")
			}
			rts[0].Exit()
			for i, rt := range rts {
				<-rt.done
				if n := rt.nBackstop.Load(); n != 0 {
					t.Errorf("node %d: %d batches left by the backstop, want 0", i, n)
				}
				nw.Endpoint(i).Close()
			}
		})
	}
}

// pinned is set by pinWorker.Mark on the remote node and polled by
// pinWorker.SendThenSpin on the sending one (same process).
var pinned atomic.Bool

type pinWorker struct{ Chare }

func (w *pinWorker) Mark() { pinned.Store(true) }

// SendThenSpin sends one remote message and then keeps its PE busy until the
// message has been received. The PE is awake, so neither an idle hook nor a
// parked-PE sender will transmit the batch: only the backstop can.
func (w *pinWorker) SendThenSpin(peer Proxy) bool {
	peer.Call("Mark")
	for deadline := time.Now().Add(30 * time.Second); !pinned.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestBackstopFlushesPinnedPE covers the case no flush rule can see: an
// entry method that sends and then does not return.
func TestBackstopFlushesPinnedPE(t *testing.T) {
	pinned.Store(false)
	rts := runMultiNode(t, 2, 1, nil, func(rt *Runtime) {
		rt.Register(&pinWorker{})
	}, func(self *Chare) {
		g := self.NewGroup(&pinWorker{})
		if got := g.At(0).CallRet("SendThenSpin", g.At(1)).Get(); got != true {
			t.Error("message not received while its sender's entry method was still running")
		}
	})
	if n := rts[0].nBackstop.Load(); n == 0 {
		t.Error("the pinned PE's batch left without the backstop counting it")
	}
}

// The repeat test's message streams. A message's first argument is
// stream*repStride + its place in the stream, which says where it must go and
// with which header (repIntent).
const (
	repFlood = iota // phase 1: main -> element 2, Hit only
	repTo2          // main -> element 2: Hit, Other every 7th, a slice past batchBytes every 50th
	repTo3          // main -> element 3: Hit, two future-carrying Rets in every 13
	repAnon         // main through a proxy of no PE (Src -1) -> element 2, Hit
	repBcast        // main -> the whole array, Hit
	repStreams

	repStride = 1_000_000
)

// repIntent is the element (-1: the whole array), method, sender and
// future-carrying-ness of the message whose first argument is seq.
func repIntent(seq int) (elem int, method string, src PE, fut bool) {
	place := seq % repStride
	switch seq / repStride {
	case repFlood:
		return 2, "Hit", 0, false
	case repTo2:
		if place%7 == 6 {
			return 2, "Other", 0, false
		}
		return 2, "Hit", 0, false
	case repTo3:
		if place%13 >= 11 { // the second differs from the first in its future alone
			return 3, "Ret", 0, true
		}
		return 3, "Hit", 0, false
	case repAnon:
		return 2, "Hit", -1, false
	}
	return -1, "Hit", 0, false
}

// repData is the slice that travels with seq: larger than a whole batch for
// every 50th message of repTo2.
func repData(seq int) []int64 {
	data := []int64{int64(seq), -3 * int64(seq)}
	if seq/repStride == repTo2 && seq%repStride%50 == 49 {
		for len(data)*8 <= batchBytes {
			data = append(data, int64(len(data)))
		}
	}
	return data
}

// repWorker checks every message it is handed against repIntent, and each
// stream's order.
type repWorker struct {
	Chare
	Next [repStreams]int
	Seen int
}

func (w *repWorker) see(method string, seq int, data []int64) {
	elem, want, _, _ := repIntent(seq)
	stream, place := seq/repStride, seq%repStride
	switch {
	case method != want || (elem >= 0 && elem != w.ThisIndex[0]):
		boxSeen.fail("element %d: %s(%d), want %s at element %d", w.ThisIndex[0], method, seq, want, elem)
	case !slices.Equal(data, repData(seq)):
		boxSeen.fail("element %d: %s(%d) came with %d values that do not belong to it", w.ThisIndex[0], method, seq, len(data))
	case place != w.Next[stream]:
		boxSeen.fail("element %d: stream %d delivered message %d when %d was due", w.ThisIndex[0], stream, place, w.Next[stream])
	}
	w.Next[stream] = place + 1
	w.Seen++
}

func (w *repWorker) Hit(seq int, data []int64)     { w.see("Hit", seq, data) }
func (w *repWorker) Other(seq int, data []int64)   { w.see("Other", seq, data) }
func (w *repWorker) Ret(seq int, data []int64) int { w.see("Ret", seq, data); return seq }
func (w *repWorker) Count() int                    { return w.Seen }

// TestBatchRepeatHeaders floods two elements on the other node and checks
// both ends of repeat sub-frames (wire.go): every message reaches the right
// element with its own arguments and in its sender's order, and in the frames
// node 0 sent, a single-target flood is at least 99 % repeats while every
// change of index, method, future or sender starts a full header. The runs to
// each element are interleaved with future-carrying calls, broadcasts (tree
// frames) and messages past batchBytes. Under dynamic dispatch Hit and Other
// differ in nothing but the method name. `make guards` runs it under -race at
// GOMAXPROCS 1, 2 and 8.
func TestBatchRepeatHeaders(t *testing.T) {
	t.Run("tree", func(t *testing.T) { batchRepeatJob(t, Config{}) })
	t.Run("dynamic", func(t *testing.T) { batchRepeatJob(t, Config{Dispatch: DynamicDispatch}) })
}

// tapTransport passes every frame on and keeps a copy of those to node 1.
type tapTransport struct {
	transport.Transport
	rec recTransport
}

func (t *tapTransport) Send(node int, frame []byte) error {
	if node == 1 {
		_ = t.rec.Send(node, frame) // only records
	}
	return t.Transport.Send(node, frame)
}

func batchRepeatJob(t *testing.T, mode Config) {
	const (
		flood = 4000 // repFlood messages
		n     = 1500 // repTo2 and repTo3 messages each
	)
	boxSeen = &boxLog{seen: map[string]map[int]int{}}
	tap := &tapTransport{}
	node := 0
	rts := runMultiNode(t, 2, 1, func(cfg *Config) {
		cfg.Dispatch = mode.Dispatch
		if node == 0 {
			tap.Transport = cfg.Transport
			cfg.Transport = tap
		}
		node++
	}, func(rt *Runtime) {
		rt.Register(&repWorker{})
		rt.agg.delay = time.Hour // batches leave by threshold or when the PE idles
	}, func(self *Chare) {
		arr := self.NewArray(&repWorker{}, []int{4}) // elements 2 and 3 live on node 1
		anon := arr.At(2)
		anon.p = nil // sends as no PE: Src -1
		rets := map[int]Future{}
		send := func(stream, place int) {
			seq := stream*repStride + place
			elem, method, src, fut := repIntent(seq)
			p := arr
			switch {
			case src < 0:
				p = anon
			case elem >= 0:
				p = arr.At(elem)
			}
			if fut {
				rets[seq] = p.CallRet(method, seq, repData(seq))
			} else {
				p.Call(method, seq, repData(seq))
			}
		}
		for i := 0; i < flood; i++ {
			send(repFlood, i)
		}
		bcasts := 0
		for i := 0; i < n; i += 10 { // runs of 10 to each element
			for j := i; j < i+10; j++ {
				send(repTo2, j)
				switch {
				case j%5 == 2:
					send(repAnon, j/5)
				case j%100 == 4: // between two Hits to element 2
					send(repBcast, bcasts)
					bcasts++
				}
			}
			for j := i; j < i+10; j++ {
				send(repTo3, j)
			}
		}
		for seq, f := range rets {
			if got := f.Get(); got != seq {
				t.Errorf("Ret(%d) returned %v", seq, got)
			}
		}
		want := []int{bcasts, bcasts, flood + n + n/5 + bcasts, n + bcasts}
		for e, w := range want {
			if got := arr.At(e).CallRet("Count").Get(); got != w {
				t.Errorf("element %d handled %v messages, want %d", e, got, w)
			}
		}
	})
	for _, b := range boxSeen.bad {
		t.Error(b)
	}

	var floodN, floodRepeats, repeats int
	for _, f := range tap.rec.sent() {
		if int32(binary.LittleEndian.Uint32(f)) != batchDest {
			continue
		}
		b := batchReader{body: f[4:], wt: rts[0].wt}
		for {
			dest, m, err := b.next()
			if err != nil {
				t.Fatalf("captured batch does not decode: %v", err)
			}
			if m == nil {
				break
			}
			if m.Kind != mInvoke || len(m.Args) != 2 {
				continue // Count
			}
			seq := m.Args[0].(int)
			elem, method, src, fut := repIntent(seq)
			wantIdx := []int{elem}
			if elem < 0 {
				wantIdx = nil
			}
			if !idxEqual(m.Idx, wantIdx) || (m.Idx == nil) != (wantIdx == nil) || m.Method != method ||
				m.Src != src || (m.Fut != FutureRef{}) != fut || (dest < 0) != (elem < 0) {
				t.Fatalf("sub-frame of message %d (repeat %v) decodes as %v to %d, fut %v", seq, b.repeat, m, dest, m.Fut)
			}
			if b.repeat {
				repeats++
				if fut {
					t.Errorf("future-carrying message %d went as a repeat", seq)
				}
			}
			if seq/repStride == repFlood {
				floodN++
				if b.repeat {
					floodRepeats++
				}
			}
		}
	}
	if floodN != flood || floodRepeats*100 < floodN*99 {
		t.Errorf("single-target flood: %d of %d sub-frames were repeats, want all %d messages and >= 99 %% repeats",
			floodRepeats, floodN, flood)
	}
	if repeats-floodRepeats == 0 {
		t.Error("no repeat sub-frame in the interleaved phase")
	}
}
