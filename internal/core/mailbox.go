package core

import "sync"

// mailbox is an unbounded MPSC queue feeding a PE scheduler. Senders never
// block (Charm++ message sends are asynchronous), which also rules out the
// send-while-full deadlocks a bounded channel would allow between PEs that
// post to each other.
//
// The queue is a growable ring buffer, so steady-state push, pushFront and
// pop are O(1) with no per-message allocation (the old slice-based queue
// re-allocated the whole queue on every pushFront and leaked the head
// through re-slicing). An item is a message or a run of them (wire.go); len
// counts messages.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []*Message // ring storage; len(buf) is the capacity (power of two not required)
	head   int        // index of the oldest item
	count  int        // number of queued items
	msgs   int64      // number of queued messages: a run weighs what it carries
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// grow ensures capacity for one more item. Caller holds mu.
func (mb *mailbox) grow() {
	if mb.count < len(mb.buf) {
		return
	}
	nb := make([]*Message, max(16, 2*len(mb.buf)))
	// Unwrap the ring with at most two memmove-speed copies: head..end of the
	// old buffer, then the wrapped prefix (empty when the ring is contiguous).
	first := mb.count
	if tail := len(mb.buf) - mb.head; first > tail {
		first = tail
	}
	copy(nb, mb.buf[mb.head:mb.head+first])
	copy(nb[first:], mb.buf[:mb.count-first])
	mb.buf = nb
	mb.head = 0
}

// push enqueues m. It reports whether the mailbox was still open.
func (mb *mailbox) push(m *Message) bool {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return false
	}
	mb.grow()
	mb.buf[(mb.head+mb.count)%len(mb.buf)] = m
	mb.count++
	mb.msgs += msgWeight(m)
	mb.mu.Unlock()
	mb.cond.Signal()
	return true
}

// pushFront enqueues m at the head (used for high-priority control traffic).
func (mb *mailbox) pushFront(m *Message) bool {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return false
	}
	mb.grow()
	mb.head = (mb.head - 1 + len(mb.buf)) % len(mb.buf)
	mb.buf[mb.head] = m
	mb.count++
	mb.msgs += msgWeight(m)
	mb.mu.Unlock()
	mb.cond.Signal()
	return true
}

// popLocked removes and returns the head message. Caller holds mu and has
// checked count > 0.
func (mb *mailbox) popLocked() *Message {
	m := mb.buf[mb.head]
	mb.buf[mb.head] = nil // release for GC
	mb.head = (mb.head + 1) % len(mb.buf)
	mb.count--
	mb.msgs -= msgWeight(m)
	return m
}

// pop dequeues the next message, blocking until one is available or the
// mailbox is closed (in which case ok is false).
func (mb *mailbox) pop() (m *Message, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.count == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if mb.count == 0 {
		return nil, false
	}
	return mb.popLocked(), true
}

// tryPop dequeues without blocking.
func (mb *mailbox) tryPop() (m *Message, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.count == 0 {
		return nil, false
	}
	return mb.popLocked(), true
}

// len returns the number of queued messages.
func (mb *mailbox) len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return int(mb.msgs)
}

// wake is a no-op: the condvar in push/pushFront already signals the
// consumer. Present so mailbox satisfies the mboxQ interface (pe.go).
func (mb *mailbox) wake() {}

// close wakes any blocked pop and makes future pushes fail.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}
