package ft

import (
	"sync"
	"testing"
	"time"

	"charmgo/internal/leakcheck"
	"charmgo/internal/transport"
)

// recorder collects frames delivered to an endpoint.
type recorder struct {
	mu     sync.Mutex
	frames [][]byte
}

func (r *recorder) handle(from int, frame []byte) {
	r.mu.Lock()
	r.frames = append(r.frames, append([]byte(nil), frame...))
	r.mu.Unlock()
}

func (r *recorder) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		got := len(r.frames)
		r.mu.Unlock()
		if got >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames (have %d)", n, got)
		}
		time.Sleep(time.Millisecond)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.frames...)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}

func TestChaosControlFrameClassifier(t *testing.T) {
	var hb [4]byte
	putDest(hb[:], hbDest)
	var death [8]byte
	putDest(death[:4], deathDest)
	if !ftControlFrame(hb[:]) || !ftControlFrame(death[:]) {
		t.Error("detector control frames not classified as control")
	}
	if ftControlFrame(appFrame(0, 1)) || ftControlFrame([]byte{1}) {
		t.Error("application/short frame classified as control")
	}
	bcast := make([]byte, 5)
	putDest(bcast, -1)
	if ftControlFrame(bcast) {
		t.Error("broadcast frame classified as control")
	}
}

// TestChaosDropsOnlyControlFrames: at drop rate 1.0 every heartbeat vanishes
// but application frames still arrive — the runtime's reliable FIFO channel
// is never the fault target.
func TestChaosDropsOnlyControlFrames(t *testing.T) {
	leakcheck.Check(t)
	nw := transport.NewMemNetwork(2)
	c := Wrap(nw.Endpoint(0), 1)
	c.SetDropRate(1.0)
	c.SetHandler(func(from int, frame []byte) {})
	rec := &recorder{}
	peer := nw.Endpoint(1)
	peer.SetHandler(rec.handle)

	var hb [4]byte
	putDest(hb[:], hbDest)
	for i := 0; i < 10; i++ {
		if err := c.Send(1, hb[:]); err != nil {
			t.Fatalf("send heartbeat: %v", err)
		}
	}
	if err := c.Send(1, appFrame(0, 42)); err != nil {
		t.Fatalf("send app frame: %v", err)
	}
	frames := rec.wait(t, 1)
	if len(frames) != 1 || frames[0][4] != 42 {
		t.Fatalf("peer received %d frames (first body %v), want only the app frame", len(frames), frames[0])
	}
	_ = c.Close()
	_ = peer.Close()
}

// TestChaosCrashIsSilence: after Crash nothing moves in either direction,
// but the wrapped transport stays open — peers see silence, not an error.
func TestChaosCrashIsSilence(t *testing.T) {
	leakcheck.Check(t)
	nw := transport.NewMemNetwork(2)
	rec0 := &recorder{}
	c := Wrap(nw.Endpoint(0), 1)
	c.SetHandler(rec0.handle)
	rec1 := &recorder{}
	peer := nw.Endpoint(1)
	peer.SetHandler(rec1.handle)

	c.Crash()
	if err := c.Send(1, appFrame(1, 1)); err != nil {
		t.Fatalf("send from crashed node errored: %v", err)
	}
	if err := peer.Send(0, appFrame(0, 2)); err != nil {
		t.Fatalf("send to crashed node errored: %v (must look like silence, not disconnection)", err)
	}
	time.Sleep(50 * time.Millisecond)
	if rec0.count() != 0 || rec1.count() != 0 {
		t.Fatalf("crashed node exchanged frames (in %d, out %d)", rec0.count(), rec1.count())
	}
	_ = c.Close()
	_ = peer.Close()
}

// Crash black-holes all traffic in both directions, permanently. The
// wrapped transport stays open: to the peers this node is silent, not
// disconnected.
func (c *Chaos) Crash() { c.crashed.Store(true) }

// CrashAfterFrames arms a fuse: after n more outbound application frames
// the layer crashes (as Crash) and fn, if non-nil, runs once on its own
// goroutine. Unlike Crash this lands the failure in the middle of the
// node's live message stream — the peers have received part of an
// in-flight exchange and lose the rest — rather than at a quiet point
// chosen by the caller. Detector control frames do not burn the fuse.
func (c *Chaos) CrashAfterFrames(n int64, fn func()) {
	c.mu.Lock()
	c.fuseArmed = true
	c.fuse = n
	c.onCrash = fn
	c.mu.Unlock()
}
