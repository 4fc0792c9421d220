package ft

import (
	"testing"
	"time"

	"charmgo/internal/leakcheck"
	"charmgo/internal/transport"
)

// TestGoodbyeSuppressesDeath is the planned-departure regression: a peer
// that says goodbye before going silent must never be declared dead, while
// an identical peer that just vanishes must be. Both run on the same
// 4-node network so the timings are directly comparable.
func TestGoodbyeSuppressesDeath(t *testing.T) {
	leakcheck.Check(t)
	nw := transport.NewMemNetwork(4)
	deaths := make(chan int, 16)
	d0 := NewDetector(nw.Endpoint(0), DetectorOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  100 * time.Millisecond,
		OnDeath:  func(peer int) { deaths <- peer },
	})
	d0.SetHandler(func(from int, frame []byte) {})

	// Node 1 participates, says goodbye, then goes silent forever.
	d1 := NewDetector(nw.Endpoint(1), DetectorOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  time.Hour,
	})
	d1.SetHandler(func(from int, frame []byte) {})
	// Node 2 participates and then vanishes without a word: a real crash.
	d2 := NewDetector(nw.Endpoint(2), DetectorOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  time.Hour,
	})
	d2.SetHandler(func(from int, frame []byte) {})
	// Node 3 stays healthy throughout.
	d3 := NewDetector(nw.Endpoint(3), DetectorOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  time.Hour,
	})
	d3.SetHandler(func(from int, frame []byte) {})

	time.Sleep(50 * time.Millisecond) // let heartbeats establish liveness

	d1.Goodbye()
	_ = d1.Close()
	_ = d2.Close() // crash: link goes quiet with no goodbye

	select {
	case p := <-deaths:
		if p != 2 {
			t.Fatalf("node %d declared dead, want only the crashed node 2", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crashed node 2 never declared dead")
	}
	if !d0.PeerDeparted(1) {
		t.Fatal("goodbye from node 1 not recorded as a planned departure")
	}
	if !d0.PeerAlive(1) {
		t.Fatal("departed node 1 wrongly declared dead")
	}
	if d0.PeerAlive(2) {
		t.Fatal("crashed node 2 still considered alive")
	}
	// Give the detector a few more timeout windows: node 1 must stay
	// undead despite its ongoing silence.
	time.Sleep(300 * time.Millisecond)
	select {
	case p := <-deaths:
		t.Fatalf("late death report for node %d (goodbye must suppress it)", p)
	default:
	}
	_ = d0.Close()
	_ = d3.Close()
}

// TestUnwatchedPeerNeverSuspected: a provisioned-but-inactive elastic slot
// is silent by design; Unwatch must keep the detector from declaring it
// dead, and Watch must restore monitoring with a fresh grace period.
func TestUnwatchedPeerNeverSuspected(t *testing.T) {
	leakcheck.Check(t)
	nw := transport.NewMemNetwork(3)
	deaths := make(chan int, 16)
	d0 := NewDetector(nw.Endpoint(0), DetectorOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  80 * time.Millisecond,
		OnDeath:  func(peer int) { deaths <- peer },
	})
	d0.Unwatch(2) // slot 2 is provisioned but not active
	d0.SetHandler(func(from int, frame []byte) {})
	d1 := NewDetector(nw.Endpoint(1), DetectorOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  time.Hour,
	})
	d1.SetHandler(func(from int, frame []byte) {})
	e2 := nw.Endpoint(2)
	e2.SetHandler(func(from int, frame []byte) {})

	time.Sleep(300 * time.Millisecond)
	select {
	case p := <-deaths:
		t.Fatalf("unwatched silent node %d declared dead", p)
	default:
	}

	// Activate the slot: it starts a detector of its own (so it heartbeats)
	// and node 0 watches it again. It must stay alive now too.
	d2 := NewDetector(e2, DetectorOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  time.Hour,
	})
	d2.SetHandler(func(from int, frame []byte) {})
	d0.Watch(2)
	time.Sleep(300 * time.Millisecond)
	select {
	case p := <-deaths:
		t.Fatalf("watched live node %d declared dead", p)
	default:
	}
	// And a watched peer that then goes silent is suspected again.
	_ = d2.Close()
	select {
	case p := <-deaths:
		if p != 2 {
			t.Fatalf("node %d declared dead, want 2", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-watched crashed node never declared dead")
	}
	_ = d0.Close()
	_ = d1.Close()
}

// TestGoodbyeStopsGossip: a death notice gossiped about a peer that already
// said goodbye locally must be ignored — planned departures win races with
// stale suspicion.
func TestGoodbyeStopsGossip(t *testing.T) {
	leakcheck.Check(t)
	nw := transport.NewMemNetwork(3)
	deaths := make(chan int, 4)
	d0 := NewDetector(nw.Endpoint(0), DetectorOptions{
		Interval: time.Hour,
		OnDeath:  func(peer int) { deaths <- peer },
	})
	d0.SetHandler(func(from int, frame []byte) {})
	d1 := NewDetector(nw.Endpoint(1), DetectorOptions{Interval: time.Hour})
	d1.SetHandler(func(from int, frame []byte) {})
	d2 := NewDetector(nw.Endpoint(2), DetectorOptions{Interval: time.Hour})
	d2.SetHandler(func(from int, frame []byte) {})

	d2.Goodbye() // node 0 and 1 both learn of the planned departure
	deadline := time.Now().Add(5 * time.Second)
	for !d0.PeerDeparted(2) || !d1.PeerDeparted(2) {
		if time.Now().After(deadline) {
			t.Fatal("goodbye never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	d1.declareDead(2) // stale local suspicion on node 1: must be a no-op
	time.Sleep(100 * time.Millisecond)
	select {
	case p := <-deaths:
		t.Fatalf("gossip declared departed node %d dead", p)
	default:
	}
	if !d0.PeerAlive(2) || !d1.PeerAlive(2) {
		t.Fatal("departed peer marked dead despite goodbye")
	}
	_ = d0.Close()
	_ = d1.Close()
	_ = d2.Close()
}

// PeerDeparted reports whether a peer announced a planned departure via a
// goodbye frame. Departed peers are never declared dead: their silence was
// negotiated, so nothing needs recovering.
func (d *Detector) PeerDeparted(node int) bool {
	if node < 0 || node >= d.n {
		return false
	}
	return d.departed[node].Load()
}
