// Package transport provides inter-node message transports for the charmgo
// runtime. It plays the role of the Charm++ communication layers (MPI, OFI,
// GNI, PAMI in the paper, section IV-C): the runtime hands it opaque frames
// addressed to a node id, and receives frames from peers through a handler.
//
// Two implementations are provided:
//
//   - Mem: an in-process network connecting N runtimes through goroutine
//     queues; used by tests and by multi-"process" simulations inside one OS
//     process (each node still serializes every frame, like real processes).
//   - TCP: a real socket transport with length-prefixed frames and a node-id
//     handshake, usable to run charmgo programs across OS processes/hosts.
//
// Both transports implement the optional BufSender fast path: the sender
// serializes into a pooled buffer (GetBuf) whose first PrefixLen bytes are
// reserved for the wire length prefix, so the transport can write the frame
// without re-copying it, and recycle the buffer afterwards.
//
// Handler contract, for every transport and either send path: a frame is
// valid only for the duration of the handler call. The memory under it is a
// pooled send buffer or a connection's reused receive buffer, and it is
// recycled when the handler returns; a handler that retains any part of a
// frame must copy it.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransportClosed is returned by Send/SendBuf after the local endpoint
// has been Closed. Callers use errors.Is to distinguish "we shut down"
// (expected during teardown) from "peer unreachable" (a candidate node
// failure the fault-tolerance layer must act on).
var ErrTransportClosed = errors.New("transport: closed")

// Handler receives an inbound frame from another node. The frame is valid
// only until the handler returns (see the package comment).
type Handler func(from int, frame []byte)

// Transport sends opaque frames between nodes of a charmgo job.
type Transport interface {
	// NodeID returns this endpoint's node id.
	NodeID() int
	// NumNodes returns the job's node count.
	NumNodes() int
	// Send delivers frame to the given node. It is safe for concurrent use.
	// The frame is copied before Send returns; the caller keeps ownership.
	Send(node int, frame []byte) error
	// SetHandler installs the inbound frame handler. Must be called before
	// any frame can be delivered.
	SetHandler(h Handler)
	// Close releases resources. Subsequent Sends fail.
	Close() error
}

// ---- pooled frame buffers (zero-copy send path) ----

// PrefixLen is the number of bytes reserved at the start of every buffer
// obtained from GetBuf. SendBuf implementations use this headroom for the
// wire length prefix so the payload never has to be re-copied.
const PrefixLen = 4

// bufPool holds *[]byte (a slice stored directly would be boxed into the
// pool's interface slot, costing a 24-byte allocation per Put). The header
// objects themselves are recycled through hdrPool — pointers convert to
// interfaces without allocating — so a steady-state Get/Put cycle is
// allocation-free.
var (
	bufPool sync.Pool // *[]byte with a live buffer
	hdrPool sync.Pool // *[]byte holding nil, awaiting reuse by PutBuf
)

// GetBuf returns a frame buffer from the pool. Its length is PrefixLen
// (the reserved prefix); append the payload after it and hand the whole
// buffer to BufSender.SendBuf, or return it with PutBuf.
func GetBuf() []byte {
	if v := bufPool.Get(); v != nil {
		hp := v.(*[]byte)
		b := *hp
		*hp = nil
		hdrPool.Put(hp)
		return b[:PrefixLen]
	}
	return make([]byte, PrefixLen, 4096)
}

// PutBuf recycles a buffer obtained from GetBuf (possibly grown by appends).
func PutBuf(b []byte) {
	if cap(b) < PrefixLen {
		return
	}
	hp, _ := hdrPool.Get().(*[]byte)
	if hp == nil {
		hp = new([]byte)
	}
	*hp = b[:PrefixLen]
	bufPool.Put(hp)
}

// BufSender is the zero-copy variant of Transport.Send. SendBuf takes
// ownership of buf, which must have been obtained from GetBuf: the payload
// is buf[PrefixLen:], and buf[:PrefixLen] is scratch space the transport may
// fill with its length prefix. The transport writes or delivers the payload
// without copying it and recycles the buffer with PutBuf when done.
type BufSender interface {
	SendBuf(node int, buf []byte) error
}

// SharedBufSender is the fan-out variant of BufSender for transports that
// can deliver one immutable buffer to several peers without a per-peer copy
// (the in-memory transport refcounts it; socket transports fall back to the
// caller's copy loop because each connection write needs its own frame
// lifetime anyway). SendBufShared takes ownership of buf just like SendBuf:
// the buffer is recycled after the last destination handler has run.
// Receivers must treat the frame as read-only — every destination sees the
// same bytes.
type SharedBufSender interface {
	SendBufShared(nodes []int, buf []byte) error
}

// ---- in-memory transport ----

// MemNetwork is a set of connected in-process transports, one per node.
type MemNetwork struct {
	eps []*MemEndpoint
}

// NewMemNetwork creates n connected in-memory endpoints.
func NewMemNetwork(n int) *MemNetwork {
	nw := &MemNetwork{eps: make([]*MemEndpoint, n)}
	for i := 0; i < n; i++ {
		ep := &MemEndpoint{nw: nw, id: i, n: n}
		ep.cond = sync.NewCond(&ep.mu)
		nw.eps[i] = ep
	}
	return nw
}

// Endpoint returns the transport endpoint for node i.
func (nw *MemNetwork) Endpoint(i int) *MemEndpoint { return nw.eps[i] }

// MemEndpoint is one node's view of a MemNetwork.
type MemEndpoint struct {
	nw      *MemNetwork
	id      int
	n       int
	mu      sync.Mutex
	cond    *sync.Cond
	q       []memFrame
	h       Handler
	done    bool
	pumping bool
}

type memFrame struct {
	from   int
	frame  []byte
	owned  []byte     // non-nil: pooled buffer to recycle after the handler runs
	shared *memShared // non-nil: fan-out buffer recycled after the last handler
}

// memShared refcounts one buffer enqueued to several destinations by
// SendBufShared; the destination whose handler finishes last recycles it.
type memShared struct {
	buf  []byte
	refs atomic.Int32
}

// NodeID implements Transport.
func (e *MemEndpoint) NodeID() int { return e.id }

// NumNodes implements Transport.
func (e *MemEndpoint) NumNodes() int { return e.n }

// SetHandler implements Transport. The delivery pump starts on the first
// call: an endpoint no node ever claims (a recovery round built for a live
// set that includes an already-dead peer) then owns no goroutine, instead
// of leaking one waiting for a Close that never comes.
func (e *MemEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	e.h = h
	start := !e.pumping && !e.done
	if start {
		e.pumping = true
	}
	e.mu.Unlock()
	if start {
		go e.pump()
	}
	e.cond.Broadcast()
}

// Send implements Transport. The frame is copied, so the caller may reuse
// its buffer (mirroring what a socket write would do).
func (e *MemEndpoint) Send(node int, frame []byte) error {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	return e.enqueue(node, memFrame{from: e.id, frame: cp})
}

// SendBuf implements BufSender: the payload is delivered to the destination
// queue without copying, and the buffer is recycled after the destination
// handler has run.
func (e *MemEndpoint) SendBuf(node int, buf []byte) error {
	err := e.enqueue(node, memFrame{from: e.id, frame: buf[PrefixLen:], owned: buf})
	if err != nil {
		PutBuf(buf)
	}
	return err
}

// SendBufShared implements SharedBufSender: every destination queue gets the
// same payload slice, and the buffer is recycled once the last destination
// handler has run.
func (e *MemEndpoint) SendBufShared(nodes []int, buf []byte) error {
	if len(nodes) == 0 {
		PutBuf(buf)
		return nil
	}
	if len(nodes) == 1 {
		return e.SendBuf(nodes[0], buf)
	}
	sh := &memShared{buf: buf}
	sh.refs.Store(int32(len(nodes)))
	// Failed destinations give up their references only after the loop:
	// releasing mid-loop would put the buffer back in the pool while later
	// iterations still slice it (the refcount makes that impossible today,
	// but only because the zero crossing is necessarily the last decrement —
	// keeping the release after the last use makes it locally evident).
	var firstErr error
	failed := int32(0)
	for _, n := range nodes {
		if err := e.enqueue(n, memFrame{from: e.id, frame: buf[PrefixLen:], shared: sh}); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if failed > 0 && sh.refs.Add(-failed) == 0 {
		PutBuf(buf)
	}
	return firstErr
}

func (e *MemEndpoint) enqueue(node int, f memFrame) error {
	e.mu.Lock()
	closed := e.done
	e.mu.Unlock()
	if closed {
		return ErrTransportClosed
	}
	if node < 0 || node >= e.n {
		return fmt.Errorf("transport: bad node id %d (of %d)", node, e.n)
	}
	dst := e.nw.eps[node]
	dst.mu.Lock()
	if dst.done {
		dst.mu.Unlock()
		return fmt.Errorf("transport: peer node %d closed", node)
	}
	dst.q = append(dst.q, f)
	dst.mu.Unlock()
	dst.cond.Broadcast()
	return nil
}

func (e *MemEndpoint) pump() {
	// The queue drained last, emptied, becomes the next e.q: the two
	// alternate, so a steady flow of frames grows no queue.
	var spare []memFrame
	for {
		e.mu.Lock()
		for (len(e.q) == 0 || e.h == nil) && !e.done {
			e.cond.Wait()
		}
		if e.done {
			e.mu.Unlock()
			return
		}
		batch := e.q
		e.q = spare
		h := e.h
		e.mu.Unlock()
		for _, f := range batch {
			h(f.from, f.frame)
			if f.owned != nil {
				PutBuf(f.owned)
			} else if f.shared != nil && f.shared.refs.Add(-1) == 0 {
				PutBuf(f.shared.buf)
			}
		}
		clear(batch) // drop the frames' buffers
		spare = batch[:0]
	}
}

// Close implements Transport.
func (e *MemEndpoint) Close() error {
	e.mu.Lock()
	e.done = true
	e.mu.Unlock()
	e.cond.Broadcast()
	return nil
}

// ---- TCP transport ----

// TCP is a socket transport. All nodes know the full address list; node i
// listens on addrs[i] and dials every node j < i (so each pair has exactly
// one connection). Frames are length-prefixed (4-byte big-endian) and the
// dialing side sends its node id as the first frame.
type TCP struct {
	id        int
	addrs     []string
	ln        net.Listener
	h         atomic.Pointer[Handler] // lock-free read on the per-frame hot path
	hset      chan struct{}           // closed when the first SetHandler runs
	hsetOnce  sync.Once
	closed    chan struct{} // closed by Close
	hsTimeout time.Duration

	mu    sync.Mutex
	conns map[int]net.Conn
	wmu   map[int]*sync.Mutex
	ready chan struct{} // closed when the startup mesh is up
	rdyFn sync.Once
	nUp   int // connections up; the startup mesh waits for one per peer
	done  bool
}

// DefaultHandshakeTimeout bounds each phase of the NewTCP startup handshake
// (dialing lower peers, waiting for higher peers to dial us, and reading a
// dialer's hello). A node that cannot complete the mesh fails fast with a
// diagnostic naming the missing peers instead of idling forever.
const DefaultHandshakeTimeout = 30 * time.Second

// NewTCP creates the transport for node id and connects the full mesh.
// It blocks until every pairwise connection is established or
// DefaultHandshakeTimeout expires.
func NewTCP(id int, addrs []string) (*TCP, error) {
	return NewTCPWithTimeout(id, addrs, DefaultHandshakeTimeout)
}

// NewTCPWithTimeout is NewTCP with an explicit startup handshake timeout
// (timeout <= 0 selects the default).
func NewTCPWithTimeout(id int, addrs []string, timeout time.Duration) (*TCP, error) {
	if timeout <= 0 {
		timeout = DefaultHandshakeTimeout
	}
	t := &TCP{
		id:        id,
		addrs:     addrs,
		conns:     make(map[int]net.Conn),
		wmu:       make(map[int]*sync.Mutex),
		ready:     make(chan struct{}),
		hset:      make(chan struct{}),
		closed:    make(chan struct{}),
		hsTimeout: timeout,
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	t.ln = ln
	go t.acceptLoop()
	// Dial lower-numbered peers (so each pair has one connection).
	for j := 0; j < id; j++ {
		conn, err := dialRetry(addrs[j], timeout)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("transport: node %d startup handshake: dial node %d (%s): %w", id, j, addrs[j], err)
		}
		if err := sendHello(conn, id); err != nil {
			ln.Close()
			return nil, fmt.Errorf("transport: node %d startup handshake: hello to node %d: %w", id, j, err)
		}
		t.addConn(j, conn)
	}
	// Wait until higher-numbered peers have dialed us.
	if len(addrs) > 1 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-t.ready:
		case <-timer.C:
			missing := t.missingPeers()
			t.Close()
			return nil, fmt.Errorf("transport: node %d startup handshake: timed out after %v in accept phase, still waiting for node(s) %v to connect",
				id, timeout, missing)
		}
	} else {
		t.rdyFn.Do(func() { close(t.ready) })
	}
	return t, nil
}

// sendHello writes the dialer's node-id handshake frame.
func sendHello(conn net.Conn, id int) error {
	hello := make([]byte, 8)
	binary.BigEndian.PutUint32(hello[:4], 4)
	binary.BigEndian.PutUint32(hello[4:], uint32(id))
	_, err := conn.Write(hello)
	return err
}

// missingPeers lists the peers this endpoint has no connection to yet.
func (t *TCP) missingPeers() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var missing []int
	for j := range t.addrs {
		if _, ok := t.conns[j]; !ok && j != t.id {
			missing = append(missing, j)
		}
	}
	return missing
}

// dialRetry dials addr with exponential backoff (peers may not be listening
// yet during job startup) until it succeeds or the deadline passes.
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := time.Millisecond
	var lastErr error
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if !time.Now().Add(backoff).Before(deadline) {
			return nil, lastErr
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			// A dialer that never completes its hello must not wedge the
			// accept path: bound the read.
			c.SetReadDeadline(time.Now().Add(t.hsTimeout))
			peer, err := readHello(c)
			if err != nil {
				c.Close()
				return
			}
			c.SetReadDeadline(time.Time{})
			t.addConn(peer, c)
		}(conn)
	}
}

// readHello reads the dialer's handshake frame (sendHello): exactly its
// eight bytes and nothing behind them, which belongs to the read loop's
// buffered reader.
func readHello(c net.Conn) (peer int, err error) {
	var hello [8]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return 0, err
	}
	if n := binary.BigEndian.Uint32(hello[:4]); n != 4 {
		return 0, fmt.Errorf("transport: hello frame of %d bytes, want 4", n)
	}
	return int(binary.BigEndian.Uint32(hello[4:])), nil
}

func (t *TCP) addConn(peer int, c net.Conn) {
	t.mu.Lock()
	if _, dup := t.conns[peer]; dup {
		// Simultaneous dials crossed (a dial racing an accept): keep the
		// established connection, drop the newcomer.
		t.mu.Unlock()
		c.Close()
		return
	}
	t.conns[peer] = c
	t.wmu[peer] = &sync.Mutex{}
	t.nUp++
	allUp := t.nUp >= len(t.addrs)-1
	t.mu.Unlock()
	go t.readLoop(peer, c)
	if allUp {
		t.rdyFn.Do(func() { close(t.ready) })
	}
}

func (t *TCP) readLoop(peer int, c net.Conn) {
	// Do not consume application frames until the runtime has installed its
	// handler. Connections come up inside NewTCP, but SetHandler only runs
	// later inside Runtime.Start; a frame read in that window would have to
	// be dropped — which is exactly how a fast node 0's initial broadcast
	// used to vanish, leaving the receiving node idle forever. Parking here
	// leaves the data in the kernel socket buffer until we are ready.
	select {
	case <-t.hset:
	case <-t.closed:
		return
	}
	fr := frameReader{r: bufio.NewReaderSize(c, readBufSize)}
	for {
		frame, err := fr.next()
		if err != nil {
			return
		}
		if hp := t.h.Load(); hp != nil { // reloaded per frame: handler may be swapped
			(*hp)(peer, frame)
		}
	}
}

const (
	// readBufSize is each connection's bufio.Reader: a batch frame's length
	// prefix and payload, and usually several frames, arrive in one read.
	readBufSize = 64 << 10
	// maxFrame is the largest frame a peer may announce.
	maxFrame = 1 << 30
	// frameStep bounds how far the frame buffer grows ahead of the bytes that
	// have actually arrived, and the size of buffer a connection keeps
	// between frames: a length prefix is a peer's claim, not yet memory.
	frameStep = 1 << 20
)

// frameReader reads one connection's length-prefixed frames into a buffer it
// reuses, so the frame next returns is valid only until the following call.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.buf) > frameStep {
		fr.buf = nil // an outsized frame's buffer is not kept for the connection's life
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(fr.r, lenBuf[:]); err != nil {
		return nil, err
	}
	announced := binary.BigEndian.Uint32(lenBuf[:])
	if announced > maxFrame {
		return nil, fmt.Errorf("transport: oversized frame (%d bytes)", announced)
	}
	n := int(announced)
	buf := fr.buf[:0]
	for len(buf) < n {
		have := len(buf)
		buf = slices.Grow(buf, min(n-have, frameStep))
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(fr.r, buf[have:]); err != nil {
			return nil, err
		}
	}
	fr.buf = buf
	return buf, nil
}

// NodeID implements Transport.
func (t *TCP) NodeID() int { return t.id }

// NumNodes implements Transport.
func (t *TCP) NumNodes() int { return len(t.addrs) }

// SetHandler implements Transport. The first call releases the per-peer
// read loops, which hold off consuming frames until a handler exists.
func (t *TCP) SetHandler(h Handler) {
	t.h.Store(&h)
	t.hsetOnce.Do(func() { close(t.hset) })
}

// conn returns the connection and write lock for a peer.
func (t *TCP) conn(node int) (net.Conn, *sync.Mutex, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, nil, ErrTransportClosed
	}
	c, ok := t.conns[node]
	if !ok {
		return nil, nil, fmt.Errorf("transport: no connection to node %d", node)
	}
	return c, t.wmu[node], nil
}

// Send implements Transport.
func (t *TCP) Send(node int, frame []byte) error {
	c, wmu, err := t.conn(node)
	if err != nil {
		return err
	}
	buf := make([]byte, 4+len(frame))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(frame)))
	copy(buf[4:], frame)
	wmu.Lock()
	_, err = c.Write(buf)
	wmu.Unlock()
	return err
}

// SendBuf implements BufSender: the length prefix is written into the
// buffer's reserved headroom and the frame goes out in a single Write with
// no copying.
func (t *TCP) SendBuf(node int, buf []byte) error {
	c, wmu, err := t.conn(node)
	if err != nil {
		PutBuf(buf)
		return err
	}
	binary.BigEndian.PutUint32(buf[:PrefixLen], uint32(len(buf)-PrefixLen))
	wmu.Lock()
	_, err = c.Write(buf)
	wmu.Unlock()
	PutBuf(buf)
	return err
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	first := !t.done
	t.done = true
	conns := t.conns
	t.conns = map[int]net.Conn{}
	t.mu.Unlock()
	if first {
		close(t.closed)
	}
	t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return nil
}
