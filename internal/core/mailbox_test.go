package core

import (
	"sync"
	"testing"
	"time"
)

func TestMailboxFIFO(t *testing.T) {
	mb := newMailbox()
	for i := 0; i < 100; i++ {
		if !mb.push(&Message{MID: int32(i)}) {
			t.Fatal("push failed")
		}
	}
	for i := 0; i < 100; i++ {
		m, ok := mb.pop()
		if !ok || m.MID != int32(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, m, ok)
		}
	}
}

func TestMailboxPushFront(t *testing.T) {
	mb := newMailbox()
	mb.push(&Message{MID: 1})
	mb.pushFront(&Message{MID: 0})
	m, _ := mb.pop()
	if m.MID != 0 {
		t.Errorf("pushFront not first: %d", m.MID)
	}
}

func TestMailboxCloseUnblocksPop(t *testing.T) {
	mb := newMailbox()
	done := make(chan bool)
	go func() {
		_, ok := mb.pop()
		done <- ok
	}()
	mb.close()
	if ok := <-done; ok {
		t.Error("pop on closed mailbox returned ok")
	}
	if mb.push(&Message{}) {
		t.Error("push after close succeeded")
	}
}

func TestMailboxTryPop(t *testing.T) {
	mb := newMailbox()
	if _, ok := mb.tryPop(); ok {
		t.Error("tryPop on empty returned ok")
	}
	mb.push(&Message{MID: 5})
	if m, ok := mb.tryPop(); !ok || m.MID != 5 {
		t.Errorf("tryPop = %v, %v", m, ok)
	}
	if mb.len() != 0 {
		t.Errorf("len = %d", mb.len())
	}
}

// runOf builds a run carrying n messages with MIDs first, first+1, ...
func runOf(first, n int) *msgRun {
	r := newRun()
	for i := 0; i < n; i++ {
		r.ms = append(r.ms, &Message{MID: int32(first + i)})
	}
	return r
}

// A run is one mailbox item and weighs the messages it carries: len counts
// messages, and the whole run leaves the mailbox at the pop.
func TestMailboxRunWeight(t *testing.T) {
	mb := newMailbox()
	mb.push(&Message{MID: 0})
	r := runOf(1, 50)
	if !mb.push(&r.m) {
		t.Fatal("push of a run failed")
	}
	mb.push(&Message{MID: 51})
	if mb.len() != 52 {
		t.Fatalf("len = %d with a message, a run of 50 and a message queued, want 52", mb.len())
	}
	if m, ok := mb.pop(); !ok || m.MID != 0 {
		t.Fatalf("first pop = %v, %v", m, ok)
	}
	m, ok := mb.pop()
	if !ok || m.Kind != mRun || m.Ctl != any(r) {
		t.Fatalf("second pop = %v, %v; want the run", m, ok)
	}
	for i, rm := range r.ms {
		if rm.MID != int32(i+1) {
			t.Fatalf("run message %d has MID %d", i, rm.MID)
		}
	}
	if mb.len() != 1 {
		t.Errorf("len = %d after the run was popped, want 1", mb.len())
	}
	mb.close()
	if mb.push(&r.m) {
		t.Error("push after close succeeded")
	}
}

// TestMailboxFIFOAcrossSegments keeps a queue standing while the head and
// tail cross several segment boundaries, with a pushFront (the priority side
// queue) interleaved every round: FIFO order of the rest must not notice.
func TestMailboxFIFOAcrossSegments(t *testing.T) {
	mb := newMailbox()
	next := int32(0)   // next value to push
	expect := int32(0) // next value expected from pop
	for round := 0; round < 200; round++ {
		for i := 0; i < 7; i++ {
			mb.push(&Message{MID: next})
			next++
		}
		// A pushFront followed by an immediate pop must not disturb FIFO order
		// of the rest.
		mb.pushFront(&Message{MID: -1})
		if m, _ := mb.pop(); m.MID != -1 {
			t.Fatalf("round %d: pushFront not first: %d", round, m.MID)
		}
		for i := 0; i < 5; i++ {
			m, ok := mb.pop()
			if !ok || m.MID != expect {
				t.Fatalf("round %d: pop got %v ok=%v, want %d", round, m, ok, expect)
			}
			expect++
		}
	}
	for expect < next {
		m, ok := mb.pop()
		if !ok || m.MID != expect {
			t.Fatalf("drain: got %v ok=%v, want %d", m, ok, expect)
		}
		expect++
	}
	if mb.len() != 0 {
		t.Fatalf("len = %d after drain", mb.len())
	}
	if next < 2*lfSegSize {
		t.Fatalf("%d messages pushed: the queue did not cross a segment boundary", next)
	}
}

func TestMailboxConcurrentProducers(t *testing.T) {
	mb := newMailbox()
	const producers, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mb.push(&Message{MID: int32(p)})
			}
		}(p)
	}
	counts := map[int32]int{}
	for i := 0; i < producers*each; i++ {
		m, ok := mb.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		counts[m.MID]++
	}
	wg.Wait()
	for p := int32(0); p < producers; p++ {
		if counts[p] != each {
			t.Errorf("producer %d delivered %d of %d", p, counts[p], each)
		}
	}
}

// msgWithSeq tags a message with a producer id and per-producer sequence via
// the Src/MID fields (unused by the mailbox itself).
func msgWithSeq(producer int, seq int32) *Message {
	return &Message{Kind: mInvoke, Src: PE(producer), MID: seq}
}

func TestLFMailboxFIFOSingleProducer(t *testing.T) {
	mb := newMailbox()
	const n = 4 * lfSegSize // cross several segment boundaries
	for i := int32(0); i < n; i++ {
		if !mb.push(msgWithSeq(0, i)) {
			t.Fatal("push on open mailbox failed")
		}
	}
	if got := mb.len(); got != n {
		t.Fatalf("len = %d, want %d", got, n)
	}
	for i := int32(0); i < n; i++ {
		m, ok := mb.tryPop()
		if !ok || m.MID != i {
			t.Fatalf("pop %d: got %v ok=%v", i, m, ok)
		}
	}
	if _, ok := mb.tryPop(); ok {
		t.Fatal("tryPop on empty mailbox returned a message")
	}
}

func TestLFMailboxConcurrentProducersPerSenderFIFO(t *testing.T) {
	mb := newMailbox()
	const producers = 8
	const perProducer = 5000
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := int32(0); i < perProducer; i++ {
				mb.push(msgWithSeq(pr, i))
			}
		}(pr)
	}
	got := 0
	next := [producers]int32{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < producers*perProducer {
			m, ok := mb.tryPop()
			if !ok {
				continue
			}
			pr := int(m.Src)
			if m.MID != next[pr] {
				t.Errorf("producer %d: got seq %d, want %d", pr, m.MID, next[pr])
				return
			}
			next[pr]++
			got++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer stalled: drained %d of %d", got, producers*perProducer)
	}
}

func TestLFMailboxPushFrontPriority(t *testing.T) {
	mb := newMailbox()
	mb.push(msgWithSeq(0, 1))
	mb.push(msgWithSeq(0, 2))
	mb.pushFront(&Message{Kind: mExit, MID: 99})
	m, ok := mb.tryPop()
	if !ok || m.Kind != mExit {
		t.Fatalf("pushFront message did not pop first: %v", m)
	}
	if m, _ := mb.tryPop(); m.MID != 1 {
		t.Fatalf("main queue order broken after pushFront: %v", m)
	}
}

func TestLFMailboxParkWake(t *testing.T) {
	mb := newMailbox()
	popped := make(chan *Message, 1)
	go func() {
		m, ok := mb.pop()
		if ok {
			popped <- m
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer park
	mb.push(msgWithSeq(0, 7))
	select {
	case m := <-popped:
		if m.MID != 7 {
			t.Fatalf("woke with wrong message: %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push did not wake the parked consumer")
	}
}

func TestLFMailboxParkSeesQueuedWork(t *testing.T) {
	mb := newMailbox()
	// A push before the consumer armed sends no wake token (nobody was
	// parked), so park must find the queued message in its re-check and
	// return at once instead of sleeping through it.
	mb.enqueue(msgWithSeq(0, 1))
	ret := make(chan struct{})
	go func() {
		mb.park()
		close(ret)
	}()
	select {
	case <-ret:
	case <-time.After(5 * time.Second):
		t.Fatal("park slept through a queued message")
	}
}

func TestLFMailboxCloseDrains(t *testing.T) {
	mb := newMailbox()
	mb.push(msgWithSeq(0, 1))
	mb.push(msgWithSeq(0, 2))
	mb.close()
	if mb.push(msgWithSeq(0, 3)) {
		t.Fatal("push after close succeeded")
	}
	if m, ok := mb.pop(); !ok || m.MID != 1 {
		t.Fatalf("queued message lost at close: %v ok=%v", m, ok)
	}
	if m, ok := mb.pop(); !ok || m.MID != 2 {
		t.Fatalf("queued message lost at close: %v ok=%v", m, ok)
	}
	if _, ok := mb.pop(); ok {
		t.Fatal("pop on closed+drained mailbox returned a message")
	}
}

func TestLFMailboxCloseUnparks(t *testing.T) {
	mb := newMailbox()
	ret := make(chan bool, 1)
	go func() {
		_, ok := mb.pop()
		ret <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	mb.close()
	select {
	case ok := <-ret:
		if ok {
			t.Fatal("pop returned a message from an empty closed mailbox")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not unpark the consumer")
	}
}

// TestLFMailboxPushAllocs pins the steady-state push path at zero
// allocations per message (segment allocation amortizes to 1/512 per push
// and the run below tolerates that sliver). Skipped under -race: the race
// runtime instruments atomics with allocations of its own.
func TestLFMailboxPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	mb := newMailbox()
	m := msgWithSeq(0, 0)
	avg := testing.AllocsPerRun(2000, func() {
		mb.push(m)
		mb.tryPop()
	})
	if avg > 0.05 {
		t.Fatalf("lock-free push allocates %.3f objects/op, want ~0 (amortized segment only)", avg)
	}
}

// runProbe records, from inside its entry method, how many messages its node
// still has waiting, and can end the job half-way through a run.
type runProbe struct {
	Chare
	Depths []int
	ExitAt int // Exit from the call with this number; 0: never
}

func (r *runProbe) Note() {
	r.Depths = append(r.Depths, r.ctx().p.rt.MailboxDepth())
	if len(r.Depths) == r.ExitAt {
		r.Exit()
	}
}

// runProbeRT builds an unstarted one-PE runtime hosting one runProbe, so a
// test can fill the mailbox and then be the scheduler itself.
func runProbeRT(t *testing.T) (*peState, *runProbe, func() *Message) {
	t.Helper()
	rt := NewRuntime(Config{PEs: 1})
	rt.Register(&runProbe{})
	rt.wt = buildWireTables(rt.types)
	p := rt.pes[0]
	cm := &createMsg{CID: 9, Kind: ckGroup, Type: typeNameOf(&runProbe{})}
	rt.putCollMeta(cm)
	p.handle(&Message{Kind: mCreate, Src: 0, Ctl: cm})
	probe := p.colls[9].elems[idxKey([]int{0})].iface.(*runProbe)
	return p, probe, func() *Message {
		return &Message{Kind: mInvoke, CID: 9, MID: -1, Method: "Note", Src: 0, Idx: []int{0}}
	}
}

// The mailbox lets go of a run in one step, but the depth the admission gate
// and the sampler read still counts messages: sent minus handled, all the way
// through a run.
func TestMailboxDepthThroughRun(t *testing.T) {
	p, probe, note := runProbeRT(t)
	const before, inRun, after = 3, 10, 2
	for i := 0; i < before; i++ {
		p.mbox.push(note())
	}
	r := newRun()
	for i := 0; i < inRun; i++ {
		r.ms = append(r.ms, note())
	}
	p.mbox.push(&r.m)
	for i := 0; i < after; i++ {
		p.mbox.push(note())
	}
	const total = before + inRun + after
	if d := p.rt.MailboxDepth(); d != total {
		t.Fatalf("depth = %d with %d messages queued", d, total)
	}
	items := 0
	for m, ok := p.mbox.tryPop(); ok; m, ok = p.mbox.tryPop() {
		p.dispatch(m)
		items++
	}
	if items != before+1+after {
		t.Errorf("%d mailbox items carried the %d messages, want %d: the run is one", items, total, before+1+after)
	}
	if len(probe.Depths) != total {
		t.Fatalf("%d messages handled, want %d", len(probe.Depths), total)
	}
	for k, d := range probe.Depths {
		if want := total - (k + 1); d != want {
			t.Errorf("handler %d saw depth %d, want %d (sent minus handled)", k+1, d, want)
		}
	}
	if done := p.cnt.done.Load(); done != total {
		t.Errorf("%d messages counted done, want %d", done, total)
	}
}

// An Exit from inside a run stops the run at its next message, as the mExit
// pushed to the mailbox's front would have stopped a queue of single
// messages; what the run had handled is counted done, the rest is not.
func TestRunStopsAtExit(t *testing.T) {
	p, probe, note := runProbeRT(t)
	probe.ExitAt = 4
	r := newRun()
	for i := 0; i < 10; i++ {
		r.ms = append(r.ms, note())
	}
	p.mbox.push(&r.m)
	m, _ := p.mbox.tryPop()
	p.dispatch(m)
	if len(probe.Depths) != 4 {
		t.Errorf("%d messages of the run were handled, want the 4 up to the Exit", len(probe.Depths))
	}
	if done := p.cnt.done.Load(); done != 4 {
		t.Errorf("%d messages counted done, want 4", done)
	}
	if m, ok := p.mbox.tryPop(); !ok || m.Kind != mExit {
		t.Fatalf("next mailbox item = %v, %v; want the mExit", m, ok)
	}
}
