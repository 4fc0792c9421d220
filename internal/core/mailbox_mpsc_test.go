package core

import (
	"sync"
	"testing"
	"time"
)

// msgWithSeq tags a message with a producer id and per-producer sequence via
// the Src/MID fields (unused by the mailbox itself).
func msgWithSeq(producer int, seq int32) *Message {
	return &Message{Kind: mInvoke, Src: PE(producer), MID: seq}
}

func TestLFMailboxFIFOSingleProducer(t *testing.T) {
	mb := newLFMailbox()
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
	mb := newLFMailbox()
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
	mb := newLFMailbox()
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
	mb := newLFMailbox()
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

func TestLFMailboxParkAlso(t *testing.T) {
	mb := newLFMailbox()
	// park must return immediately when the external-work probe fires, even
	// with an empty queue and no wake token.
	ret := make(chan struct{})
	go func() {
		mb.park(func() bool { return true })
		close(ret)
	}()
	select {
	case <-ret:
	case <-time.After(5 * time.Second):
		t.Fatal("park ignored the also() probe")
	}
}

func TestLFMailboxCloseDrains(t *testing.T) {
	mb := newLFMailbox()
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
	mb := newLFMailbox()
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
	mb := newLFMailbox()
	m := msgWithSeq(0, 0)
	avg := testing.AllocsPerRun(2000, func() {
		mb.push(m)
		mb.tryPop()
	})
	if avg > 0.05 {
		t.Fatalf("lock-free push allocates %.3f objects/op, want ~0 (amortized segment only)", avg)
	}
}
