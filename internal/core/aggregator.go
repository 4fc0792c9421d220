package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/transport"
)

const (
	// batchBytes is the aggregation threshold: a batch that reaches it is
	// transmitted by the sender that filled it (rule (a) below).
	batchBytes = 8 << 10
	// backstopDelay bounds how long a batch can sit when rules (a)-(c)
	// below cannot see it: a PE that is awake but pinned in a long entry
	// method, or whose threaded entry method blocks in plain Go code.
	backstopDelay = time.Millisecond
)

// Which rule transmitted a batch (EvFlush trace argument).
const (
	flushThreshold = "threshold" // the sender that filled it to batchBytes
	flushIdle      = "idle"      // a PE scheduler about to park, or Exit
	flushSender    = "sender"    // a sender that found every local PE parked
	flushBackstop  = "backstop"  // the backstop timer
)

// aggregator is the TRAM analog (Charm++'s Topological Routing and
// Aggregation Module). It exists on every node of a multi-node job and is
// the one send path for messages to another node (tree broadcasts, exit and
// control frames go as frames of their own): it coalesces them into per-
// destination batch frames so that fine-grained workloads pay the transport
// cost (syscall or queue handoff, length prefix, wakeup) once per batch
// instead of once per message.
//
// Messages are serialized exactly once, directly into the outgoing batch
// buffer (a pooled transport frame), so aggregation adds no copies to the
// send path. A message of any size is appended. A pending batch is
// transmitted by whoever can tell that nobody else will: (a) the sender that
// fills it to batchBytes or past it, (b) a PE scheduler about to park (the
// idle hook in peState.loop), (c) a sender that finds every local
// PE parked, because then no idle hook is coming. While any local PE is
// awake, sends keep coalescing until that PE drains its mailbox
// (back-pressure batching).
//
// No send is stranded between (b) and (c): a PE counts itself into
// rt.nIdle before its idle-hook flushAll, and a sender reads rt.nIdle
// after appending, under the batch's mutex. Whichever of the two takes that
// mutex second sees the other: the PE's flush finds the append, or the
// sender finds the PE parked and transmits itself (DESIGN.md §3.1).
type aggregator struct {
	rt    *Runtime
	nodes []aggNode

	// One-shot backstop, armed only by an empty->non-empty append that did
	// not transmit, so an idle runtime makes no timer wake-ups.
	backstop *time.Timer
	delay    time.Duration // backstopDelay, unless a test stretches it
	armed    atomic.Bool
}

// aggNode is the pending batch for one destination node. The mutex is held
// across transmission of a full batch, which serializes senders to the same
// node exactly like the transport's per-connection write lock would, and
// guarantees per-destination frame ordering.
type aggNode struct {
	mu   sync.Mutex
	buf  []byte    // nil when empty; pooled frame starting with the batch header
	n    int       // messages coalesced into buf (trace/metrics only)
	born time.Time // first append of a batch left pending
	last invokeHdr // of the invoke buf ends with, for a repeat (wire.go); else n == 0
}

func newAggregator(rt *Runtime) *aggregator {
	a := &aggregator{
		rt:    rt,
		nodes: make([]aggNode, rt.numNodes),
		delay: backstopDelay,
	}
	a.backstop = time.AfterFunc(time.Hour, func() {
		a.armed.Store(false) // before flushing: a later append re-arms
		a.flushAll(flushBackstop)
	})
	a.backstop.Stop() // created disarmed; send arms it with Reset
	return a
}

// send appends m's frame to the destination node's pending batch and
// transmits it under rule (a) or (c).
func (a *aggregator) send(node int, dest PE, m *Message) {
	an, off := a.open(node)
	an.last.n = 0
	an.buf = appendMsg(an.buf, dest, m, a.rt.wt)
	a.close(node, an, off, 0, m.Src, dest)
}

// sendInvoke is send for an mInvoke with arguments args (m.Args unused):
// appendInvoke only reads m and args, so neither escapes to the heap through
// here. An invoke with the header of the one before it in the batch goes as
// a repeat: its arguments alone.
func (a *aggregator) sendInvoke(node int, dest PE, m *Message, args []any) {
	an, off := a.open(node)
	if an.last.matches(dest, m) {
		an.buf = appendInvokeArgs(an.buf, m, args)
		a.close(node, an, off, repeatFlag, m.Src, dest)
		return
	}
	an.buf = appendInvoke(an.buf, dest, m, args, a.rt.wt)
	an.last.set(dest, m)
	a.close(node, an, off, 0, m.Src, dest)
}

// sendFutureSet is send for a future-set of ref with value v: like
// sendInvoke, it is handed no Message that could escape through here.
func (a *aggregator) sendFutureSet(node int, dest PE, ref FutureRef, v any) {
	an, off := a.open(node)
	an.last.n = 0
	an.buf = appendFutureSet(an.buf, dest, mFutureSet, ref, v)
	a.close(node, an, off, 0, -1, dest)
}

// open locks node's batch, starts it if it is empty and reserves the next
// sub-frame's length slot, at the returned offset; the caller serializes the
// message in place behind it and calls close.
func (a *aggregator) open(node int) (*aggNode, int) {
	an := &a.nodes[node]
	an.mu.Lock()
	if an.buf == nil {
		d := batchDest // non-constant so the negative->uint32 conversion compiles
		an.buf = binary.LittleEndian.AppendUint32(transport.GetBuf(), uint32(d))
	}
	off := len(an.buf)
	an.buf = append(an.buf, 0, 0, 0, 0)
	return an, off
}

// close patches the length word of the sub-frame appended since open (with
// flag: 0 or repeatFlag), applies the flush rules and unlocks the batch.
func (a *aggregator) close(node int, an *aggNode, off int, flag uint32, src, dest PE) {
	size := len(an.buf) - off - 4
	binary.LittleEndian.PutUint32(an.buf[off:], uint32(size)|flag)
	an.n++
	if o := a.rt.obs; o != nil {
		o.batched(src, dest, size)
	}
	switch {
	case len(an.buf) >= batchBytes:
		a.xmitLocked(node, an, flushThreshold)
	case a.rt.nIdle.Load() == int32(a.rt.cfg.PEs):
		a.xmitLocked(node, an, flushSender)
	case an.n == 1:
		an.born = time.Now()
		if !a.armed.Load() && a.armed.CompareAndSwap(false, true) {
			a.backstop.Reset(a.delay)
		}
	}
	an.mu.Unlock()
}

// flushAll transmits every pending batch. Called from PE schedulers about
// to park, the backstop timer, and Exit.
func (a *aggregator) flushAll(by string) {
	for n := range a.nodes {
		if n == a.rt.nodeID {
			continue
		}
		an := &a.nodes[n]
		an.mu.Lock()
		if an.buf != nil {
			a.xmitLocked(n, an, by)
		}
		an.mu.Unlock()
	}
}

// xmitLocked hands the pending batch to the transport. an.mu is held, which
// preserves per-destination ordering between the transmitters.
func (a *aggregator) xmitLocked(node int, an *aggNode, by string) {
	buf := an.buf
	msgs := an.n
	an.buf = nil
	an.n = 0
	an.last.n = 0 // a repeat never opens a batch
	size := len(buf) - transport.PrefixLen
	// The timer also catches batches that were about to leave anyway; only
	// one that waited out the whole delay was stranded.
	if by == flushBackstop && time.Since(an.born) >= a.delay {
		a.rt.nBackstop.Add(1)
	}
	if o := a.rt.obs; o != nil {
		o.flush(node, size, msgs, by)
	}
	a.rt.xmit(node, buf)
}

// shutdown disarms the backstop and flushes pending batches.
func (a *aggregator) shutdown() {
	a.backstop.Stop()
	a.flushAll(flushIdle)
}
