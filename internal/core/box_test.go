package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/ser"
)

// The box tests send messages whose arguments vouch for each other: a
// sequence number, a tag spelling it and a slice computed from it. A receiver
// that finds them in disagreement was shown a box that had been returned
// (poisoned) or handed to a later message.

// bigEvery: every bigEvery-th message of a path carries a slice larger than
// a whole batch (batchBytes), which the aggregator appends like any other and
// then transmits at once: a cross-node flood mixes such frames into the
// batches of small ones, and per-sender FIFO must not notice.
const bigEvery = 50

func boxArgs(seq int) (int, string, []int64) {
	data := []int64{int64(seq), 3 * int64(seq), -int64(seq)}
	if seq%bigEvery == bigEvery-1 {
		for i := len(data); i*8 <= batchBytes; i++ {
			data = append(data, int64(seq+i))
		}
	}
	return seq, fmt.Sprintf("s%d", seq), data
}

func boxArgsAgree(seq int, tag string, data []int64) bool {
	_, wantTag, want := boxArgs(seq)
	if tag != wantTag || len(data) != len(want) {
		return false
	}
	for i := range want {
		if data[i] != want[i] {
			return false
		}
	}
	return true
}

// boxLog is what the entry methods of one test run saw, by path.
type boxLog struct {
	mu   sync.Mutex
	seen map[string]map[int]int // path -> seq -> deliveries
	n    int
	bad  []string
}

var boxSeen *boxLog // the running test's log; box tests do not run in parallel

func (l *boxLog) see(path string, seq int, tag string, data []int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !boxArgsAgree(seq, tag, data) {
		l.bad = append(l.bad, fmt.Sprintf("%s: seq %d came with tag %q data %v", path, seq, tag, data))
	}
	if l.seen[path] == nil {
		l.seen[path] = map[int]int{}
	}
	l.seen[path][seq]++
	l.n++
}

func (l *boxLog) fail(format string, a ...any) {
	l.mu.Lock()
	l.bad = append(l.bad, fmt.Sprintf(format, a...))
	l.mu.Unlock()
}

func (l *boxLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// boxGuarded takes its steps in order: what arrives early waits in el.buf.
type boxGuarded struct {
	Chare
	Next int
}

func (g *boxGuarded) Step(seq int, tag string, data []int64) {
	if seq != g.Next {
		boxSeen.fail("guarded: step %d ran when %d was due", seq, g.Next)
	}
	g.Next = seq + 1
	boxSeen.see("guarded", seq, tag, data)
}

// boxThreaded yields before it looks at what it was called with, and its
// caller's future is completed from the message long after the dispatch that
// started the thread has returned.
type boxThreaded struct {
	Chare
	Open int
}

func (w *boxThreaded) Work(seq int, tag string, data []int64) int {
	w.Wait("self.open == 1")
	boxSeen.see("threaded", seq, tag, data)
	return 7 * seq
}

func (w *boxThreaded) Release() { w.Open = 1 }

// boxPlain has neither guard nor thread; element 2 migrates mid-flood.
type boxPlain struct {
	Chare
}

func (c *boxPlain) Hit(seq int, tag string, data []int64) { boxSeen.see("plain", seq, tag, data) }
func (c *boxPlain) Move(to int)                           { c.Migrate(PE(to)) }
func (c *boxPlain) Nop() int                              { return 0 }

// boxFIFO takes messages from two senders and expects each sender's in the
// order it sent them. Element 3 is the sender on the receiver's own node.
type boxFIFO struct {
	Chare
	Next [4]int // by sending PE
}

const fifoStride = 10_000_000 // a FIFO message's sequence number is sender*fifoStride + its place

func (f *boxFIFO) Seq(seq int, tag string, data []int64) {
	sender, place := seq/fifoStride, seq%fifoStride
	if place != f.Next[sender] {
		boxSeen.fail("fifo: message %d from PE %d arrived when its message %d was due", place, sender, f.Next[sender])
	}
	f.Next[sender] = place + 1
	boxSeen.see("fifo", seq, tag, data)
}

func (f *boxFIFO) Flood(to, n int) {
	for i := 0; i < n; i++ {
		s, tag, data := boxArgs(int(f.MyPE())*fifoStride + i)
		f.ThisProxy().At(to).Call("Seq", s, tag, data)
	}
}

// boxVariadic keeps the slice reflect builds around its arguments.
type boxVariadic struct {
	Chare
	kept [][]any
}

func (v *boxVariadic) Keep(vals ...any) { v.kept = append(v.kept, vals) }

func (v *boxVariadic) Verify() int {
	for _, vals := range v.kept {
		if len(vals) != 1 {
			boxSeen.fail("variadic: kept %d values, want the one list", len(vals))
			continue
		}
		a, _ := vals[0].([]any)
		seeKept("variadic", a)
	}
	return 0
}

func seeKept(path string, a []any) {
	if len(a) != 3 {
		boxSeen.fail("%s: kept %d arguments, want 3: %v", path, len(a), a)
		return
	}
	seq, ok0 := a[0].(int)
	tag, ok1 := a[1].(string)
	data, ok2 := a[2].([]int64)
	if !ok0 || !ok1 || !ok2 {
		boxSeen.fail("%s: kept arguments changed type: %v", path, a)
		return
	}
	boxSeen.see(path, seq, tag, data)
}

// TestRecycledBoxNeverObserved drives, at once and with returned boxes
// poisoned, every path that keeps a decoded or same-node message or its
// slices past the dispatch that dequeued it: a when-guarded method delivered
// out of order (a buffered message that finally runs gives its box back from
// recheck), a threaded method that yields first, invokes forwarded after a
// migration (on the node and back across the wire), a whole-array broadcast
// and a node-level broadcast of an element-addressed invoke, and a variadic
// method that stores what it is handed. Elements 2 and 3 get that traffic
// from the other node, elements 0 and 1 from their own, in boxes from the
// sending PE's stock; local boxes must come back, too. Every entry method must
// see exactly the arguments that were sent, and an element flooded from the
// other node across many frames while a PE of its own node sends to it too
// must see each sender's messages in order. Both ingress paths must be driven:
// the flood reaches its PEs as runs, and a message kept out of the middle of a
// run must not go back with it, while the round trips at the end each arrive
// alone in their batch and give their box back outside a run (kv_closed's
// shape). `make guards` runs it under -race at GOMAXPROCS 1, 2 and 8.
func TestRecycledBoxNeverObserved(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		inRun, keptInRun, alone := recycledBoxJob(t)
		if inRun == 0 || keptInRun == 0 {
			t.Errorf("%d entry methods ran inside a multi-message run, %d of them on a message that was kept: want both > 0",
				inRun, keptInRun)
		}
		if alone == 0 {
			t.Error("no entry method began with a box given back outside a run: nothing arrived alone")
		}
	})
	t.Run("kept-bytes", keptBytesJob)
	t.Run("future-set", futureSetJob)
}

// fsSrc answers with boxArgs's data for a sequence number, through every way
// a future is completed: an entry method's return value (inline, or from a
// thread that yields first), Future.Send, and a value that carries a Proxy
// and a Future of its own.
type fsSrc struct {
	Chare
}

func fsData(seq int) []int64 { _, _, data := boxArgs(seq); return data }

func (s *fsSrc) Reply(seq int) []int64 { return fsData(seq) }

// Slow suspends on a future its own element completes, and replies from the
// thread with the value that future brought.
func (s *fsSrc) Slow(seq int) []int64 {
	f := s.CreateFuture()
	s.SelfProxy().Call("Send", seq, f)
	data, _ := f.Get().([]int64)
	return data
}

func (s *fsSrc) Send(seq int, f Future) { f.Send(fsData(seq)) }

func (s *fsSrc) Carry(seq int, f Future) fsCarrier {
	return fsCarrier{Seq: seq, Data: fsData(seq), P: s.SelfProxy(), F: f}
}

func (s *fsSrc) Poke(seq int) {
	_, tag, data := boxArgs(seq)
	boxSeen.see("carried proxy", seq, tag, data)
}

// fsCarrier crosses nodes through ser's gob fallback: the Proxy and the
// Future in it must be bound on arrival (rebindMsg walks the value in the
// box's argument slot).
type fsCarrier struct {
	Seq  int
	Data []int64
	P    Proxy
	F    Future
}

func init() { ser.RegisterType(fsCarrier{}) }

// futureSetJob completes futures, with returned boxes poisoned, from node 1
// and from node 0's own PEs into PE 0: CallRet replies (from PE 0 itself, its
// sibling and the other node, inline and threaded), Future.Send (the sender's
// PE unknown: a new box when local), a CreateFuture(4) that each of the four
// elements completes, external futures awaited by a plain goroutine that
// calls through a proxy bound to PE 0 while PE 0 takes boxes from its own
// stock for its replies, and values that carry a Proxy and a Future, which
// must arrive bound: the proxy is called and the future completed again.
// Every value must arrive as it was sent, once.
func futureSetJob(t *testing.T) {
	const n = 400 // futures per path
	log := &boxLog{seen: map[string]map[int]int{}}
	boxSeen = log
	seeVal := func(path string, seq int, v any) {
		data, ok := v.([]int64)
		if !ok {
			log.fail("%s: future %d completed with %T %v", path, seq, v, v)
			return
		}
		_, tag, _ := boxArgs(seq)
		log.see(path, seq, tag, data)
	}
	runMultiNode(t, 2, 2, nil, func(rt *Runtime) {
		rt.poisonBoxes = true
		rt.Register(&fsSrc{}, Threaded("Slow"))
	}, func(self *Chare) {
		arr := self.NewArray(&fsSrc{}, []int{4}) // element i on PE i: 2 and 3 on the other node
		arr.At(3).CallRet("Reply", 0).Get()      // node 1 knows the array before the flood
		ext := make(chan struct{})
		go func() { // not a PE: its proxy is PE 0's, its replies go to external futures
			defer close(ext)
			for seq := 0; seq < n; seq++ {
				for _, i := range []int{1, 3} {
					ch, _ := arr.At(i).ExtCall("Reply", seq)
					select {
					case v := <-ch:
						seeVal(fmt.Sprintf("ext %d", i), seq, v)
					case <-time.After(30 * time.Second):
						log.fail("ext %d: Reply(%d) never completed", i, seq)
						return
					}
				}
			}
		}()
		type pending struct {
			path string
			seq  int
			f    Future
		}
		var rets []pending
		var carried []Future
		for seq := 0; seq < n; seq++ {
			for _, i := range []int{0, 1, 3} {
				rets = append(rets, pending{fmt.Sprintf("reply %d", i), seq, arr.At(i).CallRet("Reply", seq)})
				f := self.CreateFuture()
				arr.At(i).Call("Send", seq, f)
				rets = append(rets, pending{fmt.Sprintf("send %d", i), seq, f})
			}
			for _, i := range []int{1, 3} {
				rets = append(rets, pending{fmt.Sprintf("threaded %d", i), seq, arr.At(i).CallRet("Slow", seq)})
				f := self.CreateFuture()
				carried = append(carried, f)
				rets = append(rets, pending{fmt.Sprintf("carry %d", i), seq, arr.At(i).CallRet("Carry", seq, f)})
			}
			all := self.CreateFuture(4)
			arr.Call("Send", seq, all)
			rets = append(rets, pending{"all", seq, all})
		}
		for _, r := range rets {
			switch v := r.f.Get().(type) {
			case []any:
				if len(v) != 4 {
					log.fail("all: CreateFuture(4) %d returned %d values", r.seq, len(v))
				}
				for _, x := range v {
					seeVal(r.path, r.seq, x)
				}
			case fsCarrier:
				if v.Seq != r.seq {
					log.fail("%s: future %d carried seq %d", r.path, r.seq, v.Seq)
					continue
				}
				seeVal(r.path, r.seq, v.Data)
				v.P.Call("Poke", r.seq) // panics if P arrived unbound
				v.F.Send(fsData(v.Seq)) // likewise F
			default:
				seeVal(r.path, r.seq, v)
			}
		}
		for i, f := range carried {
			seeVal(fmt.Sprintf("carried future %d", 1+2*(i%2)), i/2, f.Get())
		}
		// Waiting on ext would hold PE 0, which completes the external futures.
		deadline := time.Now().Add(30 * time.Second)
		for log.total() < 20*n && time.Now().Before(deadline) {
			arr.At(3).CallRet("Reply", 0).Get() // yields PE 0; the pokes are on their way
		}
		<-ext
	})

	log.mu.Lock()
	defer log.mu.Unlock()
	for _, b := range log.bad {
		t.Error(b)
	}
	paths := []string{"all", "carried proxy"}
	for _, i := range []int{0, 1, 3} {
		paths = append(paths, fmt.Sprintf("reply %d", i), fmt.Sprintf("send %d", i))
	}
	for _, i := range []int{1, 3} {
		paths = append(paths, fmt.Sprintf("ext %d", i), fmt.Sprintf("threaded %d", i),
			fmt.Sprintf("carry %d", i), fmt.Sprintf("carried future %d", i))
	}
	for _, path := range paths {
		want := 1
		switch path {
		case "all":
			want = 4
		case "carried proxy":
			want = 2
		}
		got := log.seen[path]
		if len(got) != n {
			t.Errorf("%s: %d distinct futures completed, want %d", path, len(got), n)
		}
		for seq, k := range got {
			if k != want {
				t.Errorf("%s: future %d completed with %d values, want %d", path, seq, k, want)
			}
		}
	}
}

// The kept-bytes chares bind handles whose parameters are all fixed-size, so
// what another node sends them is decoded into a box that keeps the argument
// bytes (Message.raw) for the handle's wire call. Their arguments vouch for
// each other as boxArgs's do.
func keptArgs(seq int) (int, int64, float64) { return seq, 3*int64(seq) + 7, float64(seq)/4 - 1 }

func (l *boxLog) seeKept(path string, seq int, sq int64, f float64) {
	if _, wantSq, wantF := keptArgs(seq); sq != wantSq || f != wantF {
		l.fail("%s: seq %d came with %d and %v", path, seq, sq, f)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen[path] == nil {
		l.seen[path] = map[int]int{}
	}
	l.seen[path][seq]++
	l.n++
}

// keptPlain reads its parameters at the call; element 2 migrates mid-flood.
type keptPlain struct {
	Chare
}

func (c *keptPlain) Hit(seq int, sq int64, f float64) { boxSeen.seeKept("plain", seq, sq, f) }
func (c *keptPlain) Echo(seq int, done Future)        { done.Send(2 * seq) }
func (c *keptPlain) Move(to int)                      { c.Migrate(PE(to)) }
func (c *keptPlain) Nop() int                         { return 0 }

// keptGuarded takes its steps in order (a when-condition needs the argument
// list), and element 2 migrates with steps still waiting.
type keptGuarded struct {
	Chare
	Next int
}

func (g *keptGuarded) Step(seq int, sq int64, f float64) {
	if seq != g.Next {
		boxSeen.fail("kept guarded: step %d ran when %d was due", seq, g.Next)
	}
	g.Next = seq + 1
	boxSeen.seeKept("guarded", seq, sq, f)
}

func (g *keptGuarded) Move(to int) { g.Migrate(PE(to)) }

// keptThreaded yields before it looks at what it was called with.
type keptThreaded struct {
	Chare
	Open int
}

func (w *keptThreaded) Work(seq int, sq int64) int {
	w.Wait("self.open == 1")
	_, _, f := keptArgs(seq)
	boxSeen.seeKept("threaded", seq, sq, f)
	return 7 * seq
}

func (w *keptThreaded) Release() { w.Open = 1 }

func init() {
	Bind[keptPlain](EM3((*keptPlain).Hit), EM2((*keptPlain).Echo), EM1((*keptPlain).Move), EM0R((*keptPlain).Nop))
	Bind[keptGuarded](EM3((*keptGuarded).Step), EM1((*keptGuarded).Move))
	Bind[keptThreaded](EM2R((*keptThreaded).Work), EM0((*keptThreaded).Release))
}

// keptBytesJob floods, from node 0 with returned boxes poisoned, elements 2
// and 3 on node 1, whose boxes keep the argument bytes: plain calls (which
// come back once their wire call has run), calls with a Future parameter,
// when-guarded steps delivered out of order (the condition has the bytes
// decoded into the box's argument slots first), a threaded method that
// yields before it looks at its parameters (its box is never returned), and
// sends forwarded after a migration, on node 1 and back across the wire, of a
// plain element and of a guarded one with steps still buffered. Every method
// must see the arguments that were sent, and node 1 must have given boxes
// that kept bytes back.
func keptBytesJob(t *testing.T) {
	const (
		n     = 600 // messages per path
		group = 8   // guarded steps are sent in descending groups of this
	)
	log := &boxLog{seen: map[string]map[int]int{}}
	boxSeen = log
	var nWire, nDecoded atomic.Int64
	var keptMu sync.Mutex
	kept := map[*Message]bool{} // node 1's boxes that reached a method with their bytes kept
	rts := runMultiNode(t, 2, 2, nil, func(rt *Runtime) {
		rt.poisonBoxes = true
		rt.holdEM = func(p *peState, m *Message) {
			switch {
			case p.rt.nodeID != 1 || m.MID < 0:
			case len(m.raw) > 0:
				nWire.Add(1)
				if m.boxed {
					keptMu.Lock()
					kept[m] = true
					keptMu.Unlock()
				}
			case m.Method == "Step" && len(m.Args) == 3:
				nDecoded.Add(1) // its when-condition had the bytes decoded
			}
		}
		rt.Register(&keptPlain{})
		rt.Register(&keptGuarded{}, When("Step", "self.next == seq"), ArgNames("Step", "seq", "sq", "f"))
		rt.Register(&keptThreaded{}, Threaded("Work"))
	}, func(self *Chare) {
		dims := []int{4} // element i on PE i: 2 and 3 on the other node
		threaded := self.NewArray(&keptThreaded{}, dims)
		guarded := self.NewArray(&keptGuarded{}, dims)
		plain := self.NewArray(&keptPlain{}, dims)
		// Node 1 decodes through the handles only once it knows a collection
		// (before, generically): wait until both its PEs have created all three.
		plain.At(2).CallRet("Nop").Get()
		plain.At(3).CallRet("Nop").Get()
		var rets, echoes []Future
		for base := 0; base < n; base += group {
			for seq := base + group - 1; seq >= base; seq-- {
				s, sq, f := keptArgs(seq)
				guarded.At(2).Call("Step", s, sq, f)
			}
			for seq := base; seq < base+group; seq++ {
				s, sq, f := keptArgs(seq)
				rets = append(rets, threaded.At(3).CallRet("Work", s, sq))
				plain.At(2).Call("Hit", s, sq, f)
				plain.At(3).Call("Hit", s, sq, f)
				if seq%10 == 0 {
					f := self.CreateFuture()
					plain.At(3).Call("Echo", seq, f)
					echoes = append(echoes, f)
				}
			}
			switch base {
			case n / 3 / group * group:
				plain.At(2).Call("Move", 3) // on node 1: later sends are forwarded there
				guarded.At(2).Call("Move", 3)
			case 2 * n / 3 / group * group:
				plain.At(2).Call("Move", 1) // to this node: later sends come back over the wire
				guarded.At(2).Call("Move", 1)
			}
		}
		threaded.At(3).Call("Release")
		for seq, f := range rets {
			if got := f.Get(); got != 7*seq {
				log.fail("kept threaded: Work(%d) returned %v, want %d", seq, got, 7*seq)
			}
		}
		for i, f := range echoes {
			if got := f.Get(); got != 20*i {
				log.fail("kept echo: Echo(%d) completed its Future parameter with %v, want %d", 10*i, got, 20*i)
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for log.total() < 4*n && time.Now().Before(deadline) {
			plain.At(3).CallRet("Nop").Get()
		}
	})

	log.mu.Lock()
	defer log.mu.Unlock()
	for _, b := range log.bad {
		t.Error(b)
	}
	for _, c := range []struct {
		path       string
		seqs, each int
	}{{"plain", n, 2}, {"guarded", n, 1}, {"threaded", n, 1}} {
		got := log.seen[c.path]
		if len(got) != c.seqs {
			t.Errorf("kept %s: %d distinct messages seen, want %d", c.path, len(got), c.seqs)
		}
		for seq, k := range got {
			if k != c.each {
				t.Errorf("kept %s: message %d delivered %d times, want %d", c.path, seq, k, c.each)
			}
		}
	}
	if nWire.Load() == 0 || nDecoded.Load() == 0 {
		t.Errorf("node 1 ran %d methods off kept bytes and %d guarded steps off decoded ones: want both > 0", nWire.Load(), nDecoded.Load())
	}
	back := 0
	for _, m := range freeBoxes(rts[1]) {
		if kept[m] {
			back++
		}
	}
	t.Logf("node 1: %d methods ran off kept bytes, %d guarded steps off decoded ones; %d of the %d boxes that kept bytes came back",
		nWire.Load(), nDecoded.Load(), back, len(kept))
	if back == 0 {
		t.Errorf("none of the %d boxes that reached a method with their bytes kept came back", len(kept))
	}
}

// recycledBoxJob reports how many entry methods began with more of their run
// still to come, how many of those were the threaded Work, which keeps its
// message past the dispatch, and how many began while their PE held boxes
// that messages arriving alone had given back (returnBox).
func recycledBoxJob(t *testing.T) (inRun, keptInRun, alone int64) {
	const (
		n        = 600 // messages per path
		group    = 8   // guarded steps are sent in descending groups of this
		bcastSeq = 1_000_000
		elemSeq  = 2_000_000
		bcasts   = (n + 96) / 97 // of each kind: every 97th message sends both
	)
	log := &boxLog{seen: map[string]map[int]int{}}
	boxSeen = log
	var nInRun, nKeptInRun, nAlone atomic.Int64
	// The boxes that carried a same-node invoke on node 0: Step, Work and
	// Keep reach elements 0 and 1 from PE 0 alone.
	var localMu sync.Mutex
	local := map[*Message]bool{}
	rts := runMultiNode(t, 2, 2, nil, func(rt *Runtime) {
		rt.poisonBoxes = true
		rt.holdEM = func(p *peState, m *Message) {
			if p.rt.nodeID == 0 && m.boxed && (m.Method == "Step" || m.Method == "Work" || m.Method == "Keep") {
				localMu.Lock()
				local[m] = true
				localMu.Unlock()
			}
			if p.spent != nil && len(p.spent.ms) > 0 {
				nAlone.Add(1)
			}
			if p.cnt.runLeft.Load() > 0 {
				nInRun.Add(1)
				if m.Method == "Work" && m == p.cur {
					nKeptInRun.Add(1)
				}
			}
		}
		rt.Register(&boxFIFO{})
		rt.Register(&boxGuarded{}, When("Step", "self.next == seq"), ArgNames("Step", "seq", "tag", "data"))
		rt.Register(&boxThreaded{}, Threaded("Work"))
		rt.Register(&boxPlain{})
		rt.Register(&boxVariadic{})
	}, func(self *Chare) {
		// Four elements each: element i starts on PE i, so 2 and 3 are on the
		// other node and everything sent to them is decoded into a box there,
		// while what is sent to 0 and 1 takes a box from this PE's stock.
		dims := []int{4}
		guarded := self.NewArray(&boxGuarded{}, dims)
		threaded := self.NewArray(&boxThreaded{}, dims)
		plain := self.NewArray(&boxPlain{}, dims)
		still := self.NewArray(&boxPlain{}, dims) // broadcast targets: an element in flight misses one
		variadic := self.NewArray(&boxVariadic{}, dims)
		fifo := self.NewArray(&boxFIFO{}, dims)
		fifo.At(3).Call("Flood", 2, n) // PE 3 sends to its neighbour while this PE floods it from afar

		var rets, localRets []Future
		for base := 0; base < n; base += group {
			for seq := base + group - 1; seq >= base; seq-- {
				s, tag, data := boxArgs(seq)
				guarded.At(2).Call("Step", s, tag, data)
				guarded.At(1).Call("Step", s, tag, data)
			}
			for seq := base; seq < base+group; seq++ {
				s, tag, data := boxArgs(seq)
				rets = append(rets, threaded.At(3).CallRet("Work", s, tag, data))
				localRets = append(localRets, threaded.At(1).CallRet("Work", s, tag, data))
				plain.At(2).Call("Hit", s, tag, data) // elements 2 and 1 move twice below
				plain.At(3).Call("Hit", s, tag, data)
				plain.At(1).Call("Hit", s, tag, data)
				variadic.At(3).Call("Keep", []any{s, tag, data})
				variadic.At(1).Call("Keep", []any{s, tag, data})
				s, tag, data = boxArgs(int(self.MyPE())*fifoStride + seq)
				fifo.At(2).Call("Seq", s, tag, data)
				if seq%97 == 0 {
					s, tag, data := boxArgs(bcastSeq + seq)
					still.Call("Hit", s, tag, data)
					s, tag, data = boxArgs(elemSeq + seq)
					self.ctx().p.rt.bcastAllPEs(&Message{Kind: mInvoke, CID: still.CID, Idx: []int{3},
						MID: -1, Method: "Hit", Src: self.MyPE(), Args: []any{s, tag, data}})
				}
			}
			switch base {
			case n / 3 / group * group:
				plain.At(2).Call("Move", 3) // to the sibling PE: later sends are forwarded on the node
				plain.At(1).Call("Move", 0) // likewise, from a PE of the sender's node to the sender's
			case 2 * n / 3 / group * group:
				plain.At(2).Call("Move", 1) // to this node: later sends come back over the wire
				plain.At(1).Call("Move", 2) // to the other node: later sends go out over it
			}
		}
		threaded.At(3).Call("Release")
		threaded.At(1).Call("Release")
		for i, fs := range [][]Future{rets, localRets} {
			for seq, f := range fs {
				if got := f.Get(); got != 7*seq {
					log.fail("threaded: Work(%d) on element %d returned %v to its caller, want %d", seq, 3-2*i, got, 7*seq)
				}
			}
		}
		want := 9*n + bcasts*4 + bcasts*4 // guarded x2, threaded x2, plain x3, fifo x2; a broadcast reaches 4 elements or arrives from 4 PEs
		deadline := time.Now().Add(30 * time.Second)
		for log.total() < want && time.Now().Before(deadline) {
			plain.At(3).CallRet("Nop").Get() // yields this PE: it forwards and hosts elements too
		}
		// Round trips to node 1, each request alone in its batch: by the third
		// at the latest, one finds the box of an earlier one given back.
		for i := 0; i < 3; i++ {
			plain.At(3).CallRet("Nop").Get()
		}
		variadic.At(3).CallRet("Verify").Get()
		variadic.At(1).CallRet("Verify").Get()
	})

	log.mu.Lock()
	defer log.mu.Unlock()
	for _, b := range log.bad {
		t.Error(b)
	}
	for _, c := range []struct {
		path       string
		seqs, each int
	}{
		{"guarded", n, 2}, {"threaded", n, 2}, {"variadic", n, 2},
		{"fifo", 2 * n, 1}, {"plain", n + 2*bcasts, 0},
	} {
		got := log.seen[c.path]
		if len(got) != c.seqs {
			t.Errorf("%s: %d distinct messages seen, want %d", c.path, len(got), c.seqs)
		}
		for seq, k := range got {
			want := c.each
			switch {
			case c.path != "plain":
			case seq >= bcastSeq:
				want = 4
			default:
				want = 3
			}
			if k != want {
				t.Errorf("%s: message %d delivered %d times, want %d", c.path, seq, k, want)
			}
		}
	}
	// The test is only worth something if boxes were in fact returned.
	if len(freeBoxes(rts[1])) == 0 {
		t.Error("node 1 returned no box at all: nothing was recycled, so nothing was tested")
	}
	localFree := 0
	for _, m := range freeBoxes(rts[0]) {
		if local[m] {
			localFree++
		}
	}
	if localFree == 0 {
		t.Errorf("none of the %d boxes that carried a same-node invoke on node 0 came back", len(local))
	}
	return nInRun.Load(), nKeptInRun.Load(), nAlone.Load()
}

// freeBoxes lists the boxes rt holds for reuse after its job: in its box
// list, in its PEs' spent chunks and send stocks, and in its decoders' stocks.
func freeBoxes(rt *Runtime) []*Message {
	var free []*Message
	for _, c := range rt.boxes.full {
		free = append(free, c.ms...)
	}
	for _, p := range rt.pes {
		for _, c := range []*msgRun{p.spent, p.boxes.stock.cur} {
			if c != nil {
				free = append(free, c.ms...)
			}
		}
	}
	for i := range rt.in {
		if c := rt.in[i].boxes.cur; c != nil {
			free = append(free, c.ms...)
		}
	}
	return free
}

// TestForeignGoroutineInvoke: a plain goroutine calls through a proxy bound
// to PE 0 while PE 0 floods through its own, to an element on each PE. Both
// take boxes for their same-node sends; the goroutine must never share PE 0's
// stock (its try-lock sends whoever finds it taken to a new box), and every
// message must arrive exactly once with the arguments it was sent with.
// `make guards` runs it under -race at GOMAXPROCS 1, 2 and 8.
func TestForeignGoroutineInvoke(t *testing.T) {
	const n = 3000 // messages per sender
	log := &boxLog{seen: map[string]map[int]int{}}
	boxSeen = log
	rt := NewRuntime(Config{PEs: 2})
	rt.poisonBoxes = true
	rt.Register(&boxPlain{})
	rt.Start(func(self *Chare) {
		defer self.Exit()
		plain := self.NewArray(&boxPlain{}, []int{2}) // element i on PE i; the proxy is PE 0's
		done := make(chan struct{})
		go func() {
			defer close(done)
			for seq := n; seq < 2*n; seq++ {
				s, tag, data := boxArgs(seq)
				plain.At(seq%2).Call("Hit", s, tag, data)
			}
		}()
		for seq := 0; seq < n; seq++ {
			s, tag, data := boxArgs(seq)
			plain.At(seq%2).Call("Hit", s, tag, data)
		}
		<-done
		deadline := time.Now().Add(30 * time.Second)
		for log.total() < 2*n && time.Now().Before(deadline) {
			plain.At(1).CallRet("Nop").Get() // yields PE 0 to element 0's backlog
		}
	})
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, b := range log.bad {
		t.Error(b)
	}
	got := log.seen["plain"]
	if len(got) != 2*n {
		t.Errorf("%d distinct messages seen, want %d", len(got), 2*n)
	}
	for seq, k := range got {
		if k != 1 {
			t.Errorf("message %d delivered %d times, want once", seq, k)
		}
	}
}

// A frame that fails to decode gives its box back, emptied: the error neither
// leaks it nor leaves a half-filled box for the next message.
func TestDecodeErrorReturnsBox(t *testing.T) {
	wt := testTables("RecvGhost")
	good := appendMsg(nil, 9, benchInvoke(), wt)
	box := newBox()
	stock := &boxStock{list: &boxList{}, cur: &msgRun{ms: []*Message{box}}}
	for cut := 6; cut < len(good); cut++ {
		if _, _, err := decodeMsgFull(good[:cut], wt, false, nil, stock); err == nil {
			continue // a shorter argument list can still be a valid frame
		}
		if len(stock.cur.ms) != 1 || stock.cur.ms[0] != box {
			t.Fatalf("cut %d: the stock holds %d boxes after the error, want the one it lent", cut, len(stock.cur.ms))
		}
		if box.Method != "" || box.boxed || len(box.Args) != 0 || len(box.Idx) != 0 || cap(box.Idx) != 4 {
			t.Fatalf("cut %d: box came back as %+v", cut, box)
		}
		for _, a := range box.Args[:cap(box.Args)] {
			if a != nil {
				t.Fatalf("cut %d: box came back holding argument %v", cut, a)
			}
		}
	}
	_, m, err := decodeMsgFull(good, wt, false, nil, stock)
	if err != nil || m != box || !m.boxed {
		t.Fatalf("decode after the errors = %v, %v; want the same box", m, err)
	}
	if m.Method != "RecvGhost" || !idxEqual(m.Idx, []int{12}) || len(m.Args) != 2 || m.Args[0] != 41 || m.Args[1] != 2.5 {
		t.Errorf("decoded %v args %v", m, m.Args)
	}
}

// clockPing counts pings and, at the first and the last of a run, how often
// its PE's clock has been read.
type clockPing struct {
	Chare
	N, Of    int
	reads    *int
	at0, atN int
}

func (c *clockPing) Ping() {
	if c.N == 0 {
		c.at0 = *c.reads
	}
	c.N++
	if c.N == c.Of {
		c.atN = *c.reads
	}
}

func (c *clockPing) Bind(of int) { c.Of, c.reads = of, clockReads }
func (c *clockPing) Reads() int  { return c.atN - c.at0 }

var clockReads *int // TestOneClockReadPerEM's counter, bound by clockPing.Bind

// TestOneClockReadPerEM: a PE that runs entry methods back to back reads its
// clock once per method — the end of one is the start of the next.
func TestOneClockReadPerEM(t *testing.T) {
	const n = 1000
	reads := 0
	clockReads = &reads
	rt := NewRuntime(Config{PEs: 1})
	rt.Register(&clockPing{})
	p := rt.pes[0]
	now := p.now
	p.now = func() time.Duration { reads++; return now() }
	got := -1
	rt.Start(func(self *Chare) {
		defer self.Exit()
		c := self.NewChare(&clockPing{}, 0)
		c.Call("Bind", n)
		// Queue every ping behind this method: the PE runs them without
		// parking once the Get below yields it.
		for i := 0; i < n; i++ {
			c.Call("Ping")
		}
		got = c.CallRet("Reads").Get().(int)
	})
	// Between the first ping's body and the last one's lie the ends of n-1
	// entry methods.
	if got != n-1 {
		t.Errorf("%d clock reads across %d back-to-back entry methods, want %d", got, n, n-1)
	}
}
