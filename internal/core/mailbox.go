package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// mailbox is the unbounded, lock-free MPSC queue feeding a PE scheduler
// (DESIGN.md §3.9): a linked list of fixed-size segments whose slots
// producers claim with a per-segment atomic ticket counter. Senders never
// block (Charm++ message sends are asynchronous, and a bounded queue would
// allow send-while-full deadlocks between PEs that post to each other) and
// never take a lock; the single consumer walks segments in order and parks
// on a one-token channel when the queue is empty, so a push wakes it with one
// CAS + one non-blocking channel send. An item is a message or a run of them
// (wire.go); len counts messages.
//
// Producer protocol: load tailSeg, claim a ticket with tail.Add(1)-1.
//   - ticket < lfSegSize: store the message into that slot — done.
//   - ticket == lfSegSize: this producer overflowed first; it allocates the
//     next segment, stores its message at slot 0 of it, links seg.next, and
//     advances tailSeg. Installers are serialized by the chain itself (a
//     segment's tickets are only claimable once tailSeg points at it).
//   - ticket > lfSegSize: spin until tailSeg advances, then retry.
//
// Segments are never recycled (a stalled producer holding a stale segment
// reference makes pool reuse an ABA hazard), so steady-state push cost is one
// ticket Add + one slot store, with one segment allocation amortized over
// lfSegSize messages — zero allocations per message.
//
// Per-sender FIFO holds because one sender's successive claims land at
// strictly increasing (segment, slot) positions, and the consumer drains
// positions in order, spinning (Gosched) on a claimed-but-unstored slot.
//
// depth counts the messages of fully-stored items (a run, wire.go, weighs
// what it carries, so one add covers it): a producer raises it after the
// slot store, so depth > 0 guarantees the consumer finds an item at or
// after its cursor in bounded time. The park/wake handshake is Dekker-style:
// the consumer arms `parked` then re-checks depth; a producer increments
// depth then CASes `parked` — seq-cst atomics make one of the two observe
// the other, so no sleep is ever missed. Stale wake tokens (cap-1 channel)
// cause at most one spurious re-check.
//
// pushFront traffic (mExit only — cold) goes through a small mutex-guarded
// priority side queue drained before the main queue.

const lfSegSize = 512

type lfSeg struct {
	slots [lfSegSize]atomic.Pointer[Message]
	tail  atomic.Int64 // tickets claimed in this segment (may exceed lfSegSize)
	next  atomic.Pointer[lfSeg]
}

type mailbox struct {
	headSeg *lfSeg // consumer-only cursor
	headIdx int    // consumer-only: next slot index in headSeg

	tailSeg atomic.Pointer[lfSeg]
	depth   atomic.Int64
	closed  atomic.Bool

	parked atomic.Bool
	wakeCh chan struct{}

	prioMu sync.Mutex
	prio   []*Message
	prioN  atomic.Int32
}

func newMailbox() *mailbox {
	s := &lfSeg{}
	mb := &mailbox{headSeg: s, wakeCh: make(chan struct{}, 1)}
	mb.tailSeg.Store(s)
	return mb
}

// enqueue claims a slot and stores m, without the wake handshake.
func (mb *mailbox) enqueue(m *Message) {
	w := msgWeight(m) // before the store: m is the consumer's after it
	for {
		s := mb.tailSeg.Load()
		t := s.tail.Add(1) - 1
		switch {
		case t < lfSegSize:
			s.slots[t].Store(m)
			mb.depth.Add(w)
			return
		case t == lfSegSize:
			ns := &lfSeg{}
			ns.tail.Store(1)
			ns.slots[0].Store(m)
			s.next.Store(ns)
			mb.tailSeg.Store(ns)
			mb.depth.Add(w)
			return
		default:
			// Another producer is installing the next segment; wait it out.
			for mb.tailSeg.Load() == s {
				runtime.Gosched()
			}
		}
	}
}

// push enqueues m and wakes a parked consumer. It reports whether the
// mailbox was still open.
func (mb *mailbox) push(m *Message) bool {
	if mb.closed.Load() {
		return false
	}
	mb.enqueue(m)
	mb.wake()
	return true
}

// pushFront enqueues m ahead of the main queue (high-priority control
// traffic; mExit). Cold path: mutex-guarded side queue.
func (mb *mailbox) pushFront(m *Message) bool {
	if mb.closed.Load() {
		return false
	}
	mb.prioMu.Lock()
	mb.prio = append(mb.prio, m)
	mb.prioMu.Unlock()
	mb.prioN.Add(1)
	mb.wake()
	return true
}

// wake unparks the consumer if (and only if) it is parked or arming: one CAS
// on the fast path, one non-blocking token send when it hits.
func (mb *mailbox) wake() {
	if mb.parked.CompareAndSwap(true, false) {
		select {
		case mb.wakeCh <- struct{}{}:
		default:
		}
	}
}

// tryPop dequeues without blocking. It spins (Gosched) over a slot that has
// been claimed but not yet stored — depth > 0 proves the store is coming.
func (mb *mailbox) tryPop() (*Message, bool) {
	if mb.prioN.Load() > 0 {
		mb.prioMu.Lock()
		if len(mb.prio) > 0 {
			m := mb.prio[0]
			mb.prio = mb.prio[1:]
			mb.prioMu.Unlock()
			mb.prioN.Add(-1)
			return m, true
		}
		mb.prioMu.Unlock()
	}
	if mb.depth.Load() == 0 {
		return nil, false
	}
	for {
		if mb.headIdx == lfSegSize {
			ns := mb.headSeg.next.Load()
			for ns == nil {
				runtime.Gosched() // the overflowing producer is mid-install
				ns = mb.headSeg.next.Load()
			}
			mb.headSeg = ns
			mb.headIdx = 0
		}
		if m := mb.headSeg.slots[mb.headIdx].Load(); m != nil {
			mb.headSeg.slots[mb.headIdx].Store(nil) // release for GC
			mb.headIdx++
			mb.depth.Add(-msgWeight(m))
			return m, true
		}
		runtime.Gosched() // claimed but not yet stored
	}
}

// pop dequeues the next message, parking until one is available or the
// mailbox is closed and drained (ok=false).
func (mb *mailbox) pop() (*Message, bool) {
	for {
		if m, ok := mb.tryPop(); ok {
			return m, true
		}
		if mb.closed.Load() && mb.depth.Load() == 0 && mb.prioN.Load() == 0 {
			return nil, false
		}
		mb.park(nil)
	}
}

// park blocks until a wake token arrives, unless mailbox work (or external
// work reported by also — the steal loop's deque scan) is already pending.
func (mb *mailbox) park(also func() bool) {
	mb.parked.Store(true)
	if mb.depth.Load() > 0 || mb.prioN.Load() > 0 || mb.closed.Load() || (also != nil && also()) {
		mb.parked.Store(false)
		return
	}
	<-mb.wakeCh
	mb.parked.Store(false)
}

func (mb *mailbox) len() int {
	n := mb.depth.Load() + int64(mb.prioN.Load())
	if n < 0 {
		n = 0
	}
	return int(n)
}

// close makes future pushes fail and unparks the consumer; already-queued
// messages still drain through pop/tryPop.
func (mb *mailbox) close() {
	mb.closed.Store(true)
	mb.parked.Store(false)
	select {
	case mb.wakeCh <- struct{}{}:
	default:
	}
}
