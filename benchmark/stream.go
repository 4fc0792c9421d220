package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"charmgo/internal/bench"
	"charmgo/internal/core"
	"charmgo/internal/metrics"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// stream_tcp: two 1-PE runtimes in this process joined by transport.NewTCP
// on loopback. Node 0's entry method floods bench.Ping.Ping(int) at a chare
// on node 1 with default batching. Every streamCredit messages it asks the
// chare for its running total through a future and waits: that is the
// credit that bounds the backlog (and the heap), and the total must equal
// the sum of the seeded arguments sent so far.
const (
	streamCredit  = 16384
	streamBaseDur = 100 * time.Millisecond
)

type streamSys struct {
	trs  [2]transport.Transport
	rts  [2]*core.Runtime
	trc  [2]*trace.Tracer
	reg  *metrics.Registry // node 0's instruments (the sending aggregator)
	cmd  chan time.Duration
	res  chan streamRound
	wg   sync.WaitGroup
	rng  *rand.Rand
	sum  int // what the remote chare must have accumulated
	base *streamBaseline
	obs  *observer
}

// streamRound is the entry method's answer to one window command.
type streamRound struct {
	w   window
	err error
}

// freeAddrs returns n loopback addresses whose ports were free a moment
// ago: listen on :0, note the port, close. Repeated boots therefore never
// meet a listening socket in TIME_WAIT.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// tcpMesh connects an n-node loopback mesh on fresh ports. A port noted as
// free can be taken again before the mesh listens on it, so a failed attempt
// is repeated on new ports before it counts as an error.
func tcpMesh(n int) (trs []transport.Transport, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if trs, err = tcpMeshOnce(n); err == nil {
			return trs, nil
		}
	}
	return nil, fmt.Errorf("tcp mesh: %w", err)
}

func tcpMeshOnce(n int) ([]transport.Transport, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	out := make([]transport.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := transport.NewTCPWithTimeout(i, addrs, 10*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = tr // assigned only on success: a nil *TCP in the interface would not compare equal to nil
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeAll(out)
		return nil, err
	}
	return out, nil
}

func closeAll(trs []transport.Transport) {
	for _, tr := range trs {
		if tr != nil {
			_ = tr.Close() // teardown; nothing left to report to
		}
	}
}

// memMesh is the in-process counterpart of tcpMesh.
func memMesh(n int) []transport.Transport {
	nw := transport.NewMemNetwork(n)
	out := make([]transport.Transport, n)
	for i := range out {
		out[i] = nw.Endpoint(i)
	}
	return out
}

// bootStream is the stream_tcp boot: TCP mesh on fresh ports, two runtimes,
// the target chare, and the first round trip.
func bootStream(o bootOpts) (system, error) {
	trs, err := tcpMesh(2)
	if err != nil {
		return nil, err
	}
	return startStream(trs, o)
}

// startStream runs the flood driver over an already connected 2-node mesh;
// the core.remote_invoke_mem_ns probe reuses it over a MemNetwork.
func startStream(trs []transport.Transport, o bootOpts) (*streamSys, error) {
	s := &streamSys{
		cmd: make(chan time.Duration),
		res: make(chan streamRound),
		rng: o.rng(),
	}
	copy(s.trs[:], trs)
	if o.observe {
		s.obs = &observer{}
		s.reg = metrics.NewRegistry()
	}
	for i := range s.rts {
		cfg := core.Config{PEs: 1, Transport: s.trs[i]}
		if o.observe {
			s.trc[i] = trace.New(1)
			cfg.Trace = s.trc[i]
			if i == 0 {
				cfg.Metrics = s.reg
			}
		}
		s.rts[i] = core.NewRuntime(cfg)
		s.rts[i].Register(&bench.Ping{})
	}
	ready := make(chan error, 1)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.rts[1].Start(nil) // non-zero nodes host PEs; the entry runs on node 0
	}()
	go func() {
		defer s.wg.Done()
		s.rts[0].Start(func(self *core.Chare) { s.entry(self, ready) })
	}()
	if err := <-ready; err != nil {
		_, _ = s.close()
		return nil, err
	}
	return s, nil
}

// entry is node 0's main chare: it creates the target, proves the path with
// one round trip, then serves window commands until the channel closes.
func (s *streamSys) entry(self *core.Chare, ready chan<- error) {
	defer self.Exit()
	p := self.NewChare(&bench.Ping{}, core.PE(1))
	f := self.CreateFuture()
	p.Call("Count", f)
	if got := f.Get(); got != 0 {
		ready <- fmt.Errorf("stream: first round trip returned %v, want 0", got)
		return
	}
	ready <- nil
	for d := range s.cmd {
		s.res <- s.flood(self, p, d)
	}
}

// flood sends rounds of streamCredit messages for d and checks the remote
// total at every barrier.
func (s *streamSys) flood(self *core.Chare, p core.Proxy, d time.Duration) streamRound {
	var r streamRound
	l0, w0 := s.msgCounts()
	m := startMeter()
	for time.Since(m.start) < d {
		for i := 0; i < streamCredit; i++ {
			x := 1 + s.rng.Intn(1000)
			s.sum += x
			p.Call("Ping", x)
		}
		// The receiver's queue can hold at most the messages sent since the
		// last barrier; more means the credit no longer bounds the backlog.
		if depth := s.rts[1].MailboxDepth(); depth > streamCredit {
			r.err = &invalidError{fmt.Sprintf("stream backlog %d exceeds the bound %d", depth, streamCredit)}
			return r
		}
		f := self.CreateFuture()
		p.Call("Count", f)
		if got := f.Get(); got != s.sum {
			r.w.failed += streamCredit
		}
		r.w.ops += streamCredit
	}
	m.stop(&r.w)
	l1, w1 := s.msgCounts()
	r.w.local, r.w.wire = l1-l0, w1-w0
	return r
}

func (s *streamSys) msgCounts() (local, wire int64) {
	for _, rt := range s.rts {
		l, w := rt.MsgCounts()
		local += l
		wire += w
	}
	return local, wire
}

func (s *streamSys) window(d time.Duration) (window, error) {
	s.cmd <- d
	r := <-s.res
	if r.err != nil {
		return r.w, r.err
	}
	if s.obs != nil {
		s.obs.addTrace(s.trc[0], s.trc[1])
	}
	if s.base == nil {
		b, err := newStreamBaseline()
		if err != nil {
			return r.w, err
		}
		s.base = b
	}
	ops, dur, err := s.base.run(s.rng, streamBaseDur)
	if err != nil {
		return r.w, err
	}
	r.w.ratio = r.w.rate() / (float64(ops) / dur.Seconds())
	return r.w, nil
}

func (s *streamSys) observed() observation {
	if s.obs == nil {
		return observation{}
	}
	ob := s.obs.result()
	ob.flushes, ob.flushedMsgs = batchCounters(s.reg)
	return ob
}

// batchCounters reads the aggregator's instruments out of a registry.
func batchCounters(reg *metrics.Registry) (flushes, msgs int64) {
	if c, ok := reg.Lookup("charmgo_batch_flushes_total").(*metrics.Counter); ok {
		flushes = c.Value()
	}
	if h, ok := reg.Lookup("charmgo_batch_msgs").(*metrics.Histogram); ok {
		msgs = h.Sum()
	}
	return flushes, msgs
}

func (s *streamSys) close() (int64, error) {
	close(s.cmd) // the entry returns and its deferred Exit ends the job on both nodes
	s.wg.Wait()
	closeAll(s.trs[:])
	if s.base != nil {
		return 0, s.base.close()
	}
	return 0, nil
}

// streamBaseline is the plain-Go solve of the same problem: the same seeded
// integers written through a bufio.Writer (8 KiB, the runtime's default
// batch) over one loopback TCP connection to a goroutine that sums them,
// with the same credit: every streamCredit values the writer flushes and
// waits for the reader's total.
type streamBaseline struct {
	conn net.Conn
	w    *bufio.Writer
	sum  uint64
	done chan error
}

func newStreamBaseline() (*streamBaseline, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	b := &streamBaseline{done: make(chan error, 1)}
	accepted := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		accepted <- err
		if err != nil {
			b.done <- err
			return
		}
		b.done <- sumServer(c)
	}()
	b.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	// Closing the listener resets a connection still waiting in its backlog,
	// so the listener stays open until the server has the connection.
	if err := <-accepted; err != nil {
		_ = b.conn.Close() // the accept error is the one to report
		return nil, err
	}
	b.w = bufio.NewWriterSize(b.conn, 8<<10)
	return b, nil
}

// sumServer reads 8-byte values, and after every streamCredit of them
// writes back the running total. It returns when the peer closes.
func sumServer(c net.Conn) error {
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	var buf [8]byte
	var sum uint64
	for n := 1; ; n++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		sum += binary.LittleEndian.Uint64(buf[:])
		if n%streamCredit == 0 {
			binary.LittleEndian.PutUint64(buf[:], sum)
			if _, err := c.Write(buf[:]); err != nil {
				return err
			}
		}
	}
}

// run streams rounds of streamCredit values for d. A total that differs from
// the values sent is the harness's own fault, not the system's: the pass is
// invalid.
func (b *streamBaseline) run(rng *rand.Rand, d time.Duration) (ops int64, dur time.Duration, err error) {
	var buf [8]byte
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < streamCredit; i++ {
			x := uint64(1 + rng.Intn(1000))
			b.sum += x
			binary.LittleEndian.PutUint64(buf[:], x)
			if _, err = b.w.Write(buf[:]); err != nil {
				return ops, time.Since(start), err
			}
		}
		if err = b.w.Flush(); err != nil {
			return ops, time.Since(start), err
		}
		if _, err = io.ReadFull(b.conn, buf[:]); err != nil {
			return ops, time.Since(start), err
		}
		if got := binary.LittleEndian.Uint64(buf[:]); got != b.sum {
			return ops, time.Since(start), &invalidError{fmt.Sprintf("plain-Go stream baseline summed %d, sent %d", got, b.sum)}
		}
		ops += streamCredit
	}
	return ops, time.Since(start), nil
}

func (b *streamBaseline) close() error {
	if err := b.conn.Close(); err != nil {
		return err
	}
	return <-b.done
}
