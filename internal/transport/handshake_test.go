package transport

import (
	"charmgo/internal/testport"
	"strings"
	"testing"
	"time"
)

// TestHandshakeTimeoutAcceptPhase: node 0 of a 2-node job comes up alone;
// instead of idling forever waiting for node 1's hello it must fail fast
// with a diagnostic naming the node and the phase.
func TestHandshakeTimeoutAcceptPhase(t *testing.T) {
	addrs := testport.Addrs(2)
	start := time.Now()
	tp, err := NewTCPWithTimeout(0, addrs, 250*time.Millisecond)
	if err == nil {
		tp.Close()
		t.Fatal("handshake with an absent peer succeeded")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("failed after %v, want prompt timeout", el)
	}
	for _, want := range []string{"node 0", "startup handshake", "accept phase", "[1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestHandshakeTimeoutDialPhase: node 1 dials node 0's address where nothing
// listens; the dial phase must also fail fast with node and peer named.
func TestHandshakeTimeoutDialPhase(t *testing.T) {
	addrs := testport.Addrs(2)
	start := time.Now()
	tp, err := NewTCPWithTimeout(1, addrs, 250*time.Millisecond)
	if err == nil {
		tp.Close()
		t.Fatal("handshake with an absent listener succeeded")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("failed after %v, want prompt timeout", el)
	}
	for _, want := range []string{"node 1", "startup handshake", "dial node 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestFramesBeforeHandlerNotDropped reproduces the startup race that made
// multi-process jobs hang: a frame arriving between NewTCP and SetHandler
// must be delivered once the handler is installed, not silently dropped.
func TestFramesBeforeHandlerNotDropped(t *testing.T) {
	addrs := testport.Addrs(2)
	errs := make([]error, 2)
	tps := make([]*TCP, 2)
	done := make(chan struct{})
	go func() { tps[1], errs[1] = NewTCP(1, addrs); close(done) }()
	tps[0], errs[0] = NewTCP(0, addrs)
	<-done
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	defer tps[0].Close()
	defer tps[1].Close()

	// Node 0 sends immediately; node 1 installs its handler only later.
	payload := []byte("early-frame")
	if err := tps[0].Send(1, payload); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // frame reaches node 1 pre-handler

	got := make(chan []byte, 1)
	tps[1].SetHandler(func(from int, frame []byte) {
		if from == 0 {
			cp := make([]byte, len(frame))
			copy(cp, frame)
			got <- cp
		}
	})
	select {
	case frame := <-got:
		if string(frame) != string(payload) {
			t.Errorf("delivered frame = %q, want %q", frame, payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame sent before SetHandler was dropped")
	}
}
