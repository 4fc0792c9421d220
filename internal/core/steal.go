package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Work stealing (DESIGN.md §3.9). With Config.StealEnabled, messages for
// elements of stealable chare types (no threaded or when-gated entry
// methods) are not executed inline by the routing PE. Instead:
//
//   - The owner PE routes each message into the element's run queue
//     (elemRunq, a small mutex-guarded FIFO). Routing stays owner-side, so
//     per-sender FIFO order to an element is exactly the owner's mailbox
//     order — stealing moves whole elements, never individual messages.
//   - The first message to land in an empty run queue acquires the
//     element's run grant (sched CAS 0→1) and publishes the element on the
//     owner's bounded Chase-Lev deque. The grant is the mutual exclusion:
//     an element executes on exactly one PE at a time, whichever PE holds
//     its grant.
//   - Idle PEs pop their own deque from the bottom; thieves steal from the
//     top of a victim's deque (randomized victim choice with last-victim
//     affinity). A stolen grant executes the element's queued messages on
//     the thief, then releases.
//   - Owner-only work discovered at the end of a grant (migration requests,
//     AtSync bookkeeping) makes a thief hand the grant back to the owner as
//     an mRunGrant message; deque overflow parks the grant in the pushing
//     PE's private grantOvf FIFO until deque slots free up, so grants are
//     never dropped and overflow costs no allocation.
//
// Quiescence counting treats the run-queue hop as one more message: counted
// sent at runqPush, before the mailbox message that brought it is done, and
// done when the grant has executed it. mRunGrant itself is countable, so QD
// cannot fire while granted work is parked in a deque or run queue.
//
// FT recovery and elastic drain/leave quiesce thieves through the
// stealPause/stolenActive handshake (pauseStealing): new steals stop, and
// any grant a thief already holds is handed back to its owner untouched.

const (
	// dequeSize is each PE's deque capacity in run grants (a power of two,
	// for ring index masking); overflow parks in grantOvf.
	dequeSize = 256
	// grantCap caps a PE's outstanding published grants well below the deque
	// capacity: past it thieves are not keeping up and further publishing
	// only buys runq materialization and GC pressure (see runqPush).
	grantCap = 64
)

// elemRunq is one element's FIFO of granted-but-unexecuted messages. The
// mutex only ever contends between the owner (push, while routing) and the
// current grant holder (takeAll); both critical sections are a few words.
type elemRunq struct {
	mu   sync.Mutex
	q    []*Message
	free []*Message // spare backing array, recycled between grant batches
}

func (r *elemRunq) push(m *Message) {
	r.mu.Lock()
	r.q = append(r.q, m)
	r.mu.Unlock()
}

// takeAll removes and returns the queued messages in FIFO order. The grant
// holder hands the consumed batch back through recycle, so steady-state
// grants reuse the same two backing arrays instead of allocating per batch.
func (r *elemRunq) takeAll() []*Message {
	r.mu.Lock()
	q := r.q
	r.q = r.free
	r.free = nil
	r.mu.Unlock()
	return q
}

// recycle returns a fully consumed takeAll batch for reuse. Safe because
// the run grant serializes consumers: the caller is done with the slice.
func (r *elemRunq) recycle(q []*Message) {
	if cap(q) == 0 {
		return
	}
	for i := range q {
		q[i] = nil // drop Message references for the GC
	}
	r.mu.Lock()
	if r.free == nil {
		r.free = q[:0]
	}
	r.mu.Unlock()
}

func (r *elemRunq) len() int {
	r.mu.Lock()
	n := len(r.q)
	r.mu.Unlock()
	return n
}

// stealDeque is a fixed-capacity Chase-Lev work-stealing deque of elements
// (run grants). The owner pushes and pops at the bottom; thieves steal from
// the top with a CAS. top is monotonically increasing, so a thief's CAS can
// only succeed on the element it read (slot reuse requires bottom to lap the
// capacity, which pushBottom rejects while top is that far behind).
type stealDeque struct {
	buf    [dequeSize]atomic.Pointer[element]
	top    atomic.Int64
	bottom atomic.Int64
}

// pushBottom publishes el at the bottom; false when the deque is full (a
// stale top read only under-estimates free space, never over-estimates).
func (d *stealDeque) pushBottom(el *element) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= dequeSize {
		return false
	}
	d.buf[b&(dequeSize-1)].Store(el)
	d.bottom.Store(b + 1)
	return true
}

// popBottom takes the most recently pushed element; on the last element it
// races thieves with a CAS on top.
func (d *stealDeque) popBottom() (*element, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		d.bottom.Store(b + 1)
		return nil, false
	}
	el := d.buf[b&(dequeSize-1)].Load()
	if t == b {
		if !d.top.CompareAndSwap(t, t+1) {
			d.bottom.Store(b + 1)
			return nil, false // a thief got it first
		}
		d.bottom.Store(b + 1)
		return el, true
	}
	return el, true
}

// stealTop takes the oldest element on behalf of a thief.
func (d *stealDeque) stealTop() (*element, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	el := d.buf[t&(dequeSize-1)].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	return el, true
}

func (d *stealDeque) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}

// ---- owner side: routing into run queues ----

// runqPush parks m in el's run queue and ensures some PE holds (or will
// receive) the element's run grant. Only the owner's scheduler goroutine
// calls this (routing is owner-side).
func (p *peState) runqPush(el *element, m *Message) {
	// Inline fast path: a published grant only pays off when some sibling
	// is parked and can steal it. With nobody idle, acquire the grant and
	// execute here — this keeps balanced workloads at near lock-free cost
	// (one CAS and an empty takeAll over the full deque round trip) while
	// skew still publishes: under skew the starved PEs park, nIdle rises,
	// and the slow path below shares every subsequent grant.
	//
	// The grantCap clause throttles publishing the same way when thieves
	// are not keeping up: once this PE already has grantCap unstolen grants
	// outstanding (or overflow parked behind a full deque), another one
	// cannot start any sooner anywhere else, and at high chare counts the
	// per-publish runq materialization is pure GC ballast. Skew is
	// unaffected — there the thieves drain the deque continuously, so
	// occupancy stays below the cap and publishing resumes at once.
	if (p.rt.nIdle.Load() == 0 ||
		p.deque.size() >= grantCap || len(p.grantOvf) > p.ovfHead) &&
		el.sched.CompareAndSwap(0, 1) {
		p.runInline(el, m)
		return
	}
	el.ensureRunq()
	p.cnt.sent.Add(1) // the run-queue hop (m is an invoke or a channel message: countable)
	p.rt.runqBacklog.Add(1)
	el.runq.push(m)
	if el.sched.CompareAndSwap(0, 1) {
		p.pushGrant(el)
	}
}

// runInline executes m under a grant the routing owner just acquired,
// without publishing it. FIFO is safe: any older messages are runq
// leftovers from a release race (drained first), and no new ones can
// arrive while we hold the grant — runq pushes happen only on this
// goroutine. For the same reason the release below needs no re-check
// loop: the queue cannot have refilled behind us.
func (p *peState) runInline(el *element, m *Message) {
	rt := p.rt
	el.base.ec.p = p
	if el.runq != nil {
		batch := el.runq.takeAll()
		for _, om := range batch {
			rt.runqBacklog.Add(-1)
			p.execGranted(el, om)
			p.cnt.done.Add(1)
		}
		el.runq.recycle(batch)
	}
	p.execGranted(el, m)
	if el.migrateTo.Load() >= 0 || el.atSync.Load() {
		p.ownerTail(el) // we are the owner: routing is owner-side
		if el.dead {
			return
		}
	}
	el.sched.Store(0)
}

// pushGrant publishes a held run grant on this PE's deque and wakes one
// idle sibling. On deque overflow the grant parks in grantOvf, a private
// FIFO only this PE's scheduler goroutine touches (pushGrant runs on the
// routing owner or on the grant-holding thief — either way, this
// goroutine), and refillDeque feeds it back as slots free up. A full deque
// already means hundreds of stealable grants, so skipping the wake is fine.
func (p *peState) pushGrant(el *element) {
	if !p.deque.pushBottom(el) {
		p.grantOvf = append(p.grantOvf, el)
		return
	}
	rt := p.rt
	if rt.nIdle.Load() > 0 {
		for _, q := range rt.pes {
			if q != p && q.idle.CompareAndSwap(true, false) {
				rt.nIdle.Add(-1)
				q.mbox.wake()
				break
			}
		}
	}
}

// refillDeque moves parked overflow grants onto the deque while slots
// last. Called only by this PE's scheduler goroutine.
func (p *peState) refillDeque() {
	for p.ovfHead < len(p.grantOvf) {
		if !p.deque.pushBottom(p.grantOvf[p.ovfHead]) {
			return
		}
		p.grantOvf[p.ovfHead] = nil
		p.ovfHead++
	}
	p.grantOvf = p.grantOvf[:0]
	p.ovfHead = 0
}

// ---- the work-stealing scheduler loop ----

func (p *peState) stealLoop() {
	tr := p.rt.cfg.Trace
	lpe := p.lpe()
	p.stamp = p.now()
	for !p.exiting {
		if m, ok := p.mbox.tryPop(); ok {
			p.dispatch(m)
			continue
		}
		// Feeding overflow back before popping guarantees the park below is
		// never reached with grants still parked in grantOvf: a non-empty
		// overflow either refills the deque (popBottom succeeds) or the
		// deque was already full (popBottom succeeds anyway).
		if len(p.grantOvf) > p.ovfHead {
			p.refillDeque()
		}
		if el, ok := p.deque.popBottom(); ok {
			p.runGrant(el)
			continue
		}
		if p.trySteal() {
			continue
		}
		// Nothing anywhere: park until a mailbox push or a sibling publishes
		// a grant (parkCheck re-checks the deques inside the park handshake,
		// so a grant pushed before we finished arming is never slept through).
		// Counted parked before the idle-hook flush, as in peState.loop.
		p.idle.Store(true)
		p.rt.nIdle.Add(1)
		if p.rt.agg != nil {
			p.rt.agg.flushAll(flushIdle)
		}
		var idleAt time.Duration
		if tr != nil {
			idleAt = tr.Since()
		}
		p.mbox.park(p.alsoFn)
		if p.idle.CompareAndSwap(true, false) {
			p.rt.nIdle.Add(-1)
		}
		if tr != nil {
			tr.Idle(lpe, idleAt, tr.Since()-idleAt)
		}
		p.stamp = p.now() // as in peState.loop
	}
	p.shutdownThreads()
}

// parkCheck reports pending deque work anywhere on the node; used as the
// park re-check so the wake-idle protocol cannot miss a published grant.
func (p *peState) parkCheck() bool {
	if p.deque.size() > 0 {
		return true
	}
	for _, q := range p.rt.pes {
		if q != p && q.deque.size() > 0 {
			return true
		}
	}
	return false
}

// trySteal probes the last successful victim first, then a bounded number
// of random victims. Zero allocations on a miss (alloc-guarded).
func (p *peState) trySteal() bool {
	rt := p.rt
	pes := rt.pes
	if len(pes) <= 1 || rt.stealPause.Load() != 0 {
		return false
	}
	if v := p.lastVictim; v >= 0 && v < len(pes) && pes[v] != p {
		if el, ok := pes[v].deque.stealTop(); ok {
			p.stoleFrom(el, v)
			return true
		}
	}
	for i := 0; i < 2; i++ {
		v := p.stealRng.Intn(len(pes))
		if pes[v] == p {
			continue
		}
		if el, ok := pes[v].deque.stealTop(); ok {
			p.stoleFrom(el, v)
			return true
		}
	}
	p.lastVictim = -1
	p.stats.stealFails.Add(1)
	if met := rt.met; met != nil {
		met.stealsFailed.Inc()
	}
	return false
}

// stoleFrom accounts for a successful steal and executes the stolen grant.
func (p *peState) stoleFrom(el *element, victim int) {
	p.lastVictim = victim
	p.stats.steals.Add(1)
	if met := p.rt.met; met != nil {
		met.steals.Inc()
	}
	if tr := p.rt.cfg.Trace; tr != nil {
		tr.Steal(p.lpe(), victim, tr.Since())
	}
	p.runGrant(el)
}

// ---- grant execution ----

// runGrant executes el's queued messages while holding its run grant. The
// caller must hold the grant (sched == 1 on its behalf); runGrant releases
// it, re-publishes it, or hands it to the owner before returning.
func (p *peState) runGrant(el *element) {
	rt := p.rt
	if p != el.owner {
		// Dekker handshake with pauseStealing: publish that a thief holds a
		// grant, then re-check the pause flag. The pauser orders its writes
		// the other way, so one side always observes the other.
		rt.stolenActive.Add(1)
		defer rt.stolenActive.Add(-1)
		if rt.stealPause.Load() != 0 {
			p.handback(el)
			return
		}
	}
	// The Chare API (Contribute, NewFuture, AtSync, sends) reaches its PE
	// through ec.p: point it at the executing PE for the duration. Safe —
	// the grant serializes every executor of this element.
	el.base.ec.p = p
	rounds := 0
	for {
		batch := el.runq.takeAll()
		for _, m := range batch {
			rt.runqBacklog.Add(-1)
			p.execGranted(el, m)
			p.cnt.done.Add(1) // the run-queue hop counted at runqPush
		}
		el.runq.recycle(batch)
		// Owner-only tail work: migration and AtSync stats need the routing
		// PE's maps, so a thief hands the grant home instead.
		if el.migrateTo.Load() >= 0 || el.atSync.Load() {
			if p != el.owner {
				p.handback(el)
				return
			}
			p.ownerTail(el)
			if el.dead {
				return // migrated away; migrateOut drained the runq
			}
		}
		// Release, then re-check: a runqPush that lost the sched CAS to us
		// relies on this re-check to get its message run.
		el.sched.Store(0)
		if el.runq.len() == 0 && el.migrateTo.Load() < 0 {
			return
		}
		if !el.sched.CompareAndSwap(0, 1) {
			return // the racing runqPush (or an owner op) took the grant
		}
		rounds++
		if rounds > 4 {
			// Steady inflow: requeue on our deque instead of starving the
			// mailbox behind one hot element.
			p.pushGrant(el)
			return
		}
	}
}

// execGranted runs one granted message on the executing PE.
func (p *peState) execGranted(el *element, m *Message) {
	switch m.Kind {
	case mInvoke:
		info := p.resolveEM(el.coll, m)
		p.invokeEMInner(el, info, m)
	case mChanMsg:
		cm := m.Ctl.(*chanMsg)
		if needsRebind(cm.Val) {
			cm.Val = rebindPure(cm.Val, p.rt, p, 0)
		}
		p.chanDeliver(el, cm)
	default:
		panic("core: non-stealable message kind in run queue")
	}
}

// ownerTail performs the owner-only end-of-grant work (the steal-mode
// analogue of recheck's tail): migration out and AtSync LB bookkeeping.
func (p *peState) ownerTail(el *element) {
	if el.migrateTo.Load() >= 0 {
		p.migrateOut(el)
		return
	}
	if el.atSync.Load() {
		p.lbMaybeSendStats(el.coll)
	}
}

// handback transfers a held run grant to the element's owner as a message.
func (p *peState) handback(el *element) {
	p.rt.send(el.owner.pe, &Message{Kind: mRunGrant, CID: el.cid, Src: p.pe,
		Ctl: &runGrantMsg{CID: el.cid, Key: el.key}})
}

// grabGrant lets the owner force-acquire an element's grant for an
// owner-side operation (LB/elastic-ordered migration). It returns true when
// the caller now holds the grant; on false, the current holder's release
// re-check is guaranteed to observe the already-stored migrateTo and route
// the grant back to the owner.
func (p *peState) grabGrant(el *element) bool {
	return el.sched.CompareAndSwap(0, 1)
}

// ---- steal pause (FT recovery, elastic drain/leave) ----

// pauseStealing stops thieves: no new steals begin, and every grant already
// executing on a non-owner PE finishes its current message batch and is
// handed back to its owner before this returns. No-op when stealing is off.
// Pauses nest; each pauseStealing pairs with one resumeStealing.
func (rt *Runtime) pauseStealing() {
	if !rt.cfg.StealEnabled {
		return
	}
	rt.stealPause.Add(1)
	for rt.stolenActive.Load() != 0 {
		runtime.Gosched()
	}
}

func (rt *Runtime) resumeStealing() {
	if !rt.cfg.StealEnabled {
		return
	}
	rt.stealPause.Add(-1)
}

// StealsTotal reports the number of run grants this node's PEs have stolen
// from sibling deques since start. Always 0 when Config.StealEnabled is off.
func (rt *Runtime) StealsTotal() int64 {
	var n int64
	for _, p := range rt.pes {
		n += p.stats.steals.Load()
	}
	return n
}

// ensureRunq materializes the element's run queue. Called only while the
// caller either is the routing owner goroutine or holds the run grant, and
// always before the grant is published to other PEs, so the write is
// ordered by the deque (or sched CAS) publication.
func (el *element) ensureRunq() {
	if el.runq == nil {
		el.runq = &elemRunq{}
	}
}
