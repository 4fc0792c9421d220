package core

import (
	"sync"
	"testing"
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

// A run is one item of either mailbox and weighs the messages it carries:
// len counts messages, and the whole run leaves it at the pop.
func TestMailboxRunWeight(t *testing.T) {
	for name, mb := range map[string]mboxQ{"mutex": newMailbox(), "lockfree": newLFMailbox()} {
		mb.push(&Message{MID: 0})
		r := runOf(1, 50)
		if !mb.push(&r.m) {
			t.Fatalf("%s: push of a run failed", name)
		}
		mb.push(&Message{MID: 51})
		if mb.len() != 52 {
			t.Fatalf("%s: len = %d with a message, a run of 50 and a message queued, want 52", name, mb.len())
		}
		if m, ok := mb.pop(); !ok || m.MID != 0 {
			t.Fatalf("%s: first pop = %v, %v", name, m, ok)
		}
		m, ok := mb.pop()
		if !ok || m.Kind != mRun || m.Ctl != any(r) {
			t.Fatalf("%s: second pop = %v, %v; want the run", name, m, ok)
		}
		for i, rm := range r.ms {
			if rm.MID != int32(i+1) {
				t.Fatalf("%s: run message %d has MID %d", name, i, rm.MID)
			}
		}
		if mb.len() != 1 {
			t.Errorf("%s: len = %d after the run was popped, want 1", name, mb.len())
		}
		mb.close()
		if mb.push(&r.m) {
			t.Errorf("%s: push after close succeeded", name)
		}
	}
}

// TestMailboxRingWraparound drives the head index around the ring repeatedly,
// interleaving pushFront, to exercise wraparound and growth together.
func TestMailboxRingWraparound(t *testing.T) {
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
}

// TestMailboxGrowUnwrapped grows a ring whose live window is contiguous
// (head=0, no wraparound) and checks order and count survive.
func TestMailboxGrowUnwrapped(t *testing.T) {
	mb := newMailbox()
	// Fill past the initial capacity (16) in one run: head stays at 0, so the
	// grow copy is the single-copy contiguous case.
	for i := 0; i < 100; i++ {
		mb.push(&Message{MID: int32(i)})
	}
	if got := mb.len(); got != 100 {
		t.Fatalf("len = %d, want 100", got)
	}
	for i := 0; i < 100; i++ {
		m, ok := mb.pop()
		if !ok || m.MID != int32(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, m, ok)
		}
	}
}

// TestMailboxGrowWrapped forces the live window to wrap around the end of
// the ring before growth, exercising the two-copy unwrap.
func TestMailboxGrowWrapped(t *testing.T) {
	mb := newMailbox()
	// Fill to the initial capacity, drain most, refill so the window wraps.
	for i := 0; i < 16; i++ {
		mb.push(&Message{MID: int32(i)})
	}
	for i := 0; i < 12; i++ {
		if m, _ := mb.pop(); m.MID != int32(i) {
			t.Fatalf("warmup pop got %d", m.MID)
		}
	}
	// head is now 12 with 4 queued (12..15); pushing 12 more wraps the tail
	// to indices 0..7 without growing (count 16 == cap 16) ...
	next := int32(16)
	for i := 0; i < 12; i++ {
		mb.push(&Message{MID: next})
		next++
	}
	// ... and the next push grows from a wrapped layout.
	mb.push(&Message{MID: next})
	next++
	for expect := int32(12); expect < next; expect++ {
		m, ok := mb.pop()
		if !ok || m.MID != expect {
			t.Fatalf("pop got %v ok=%v, want %d", m, ok, expect)
		}
	}
	if mb.len() != 0 {
		t.Fatalf("len = %d after drain", mb.len())
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
