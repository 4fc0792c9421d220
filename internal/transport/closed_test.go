package transport

import (
	"charmgo/internal/testport"
	"errors"
	"sync"
	"testing"
)

// TestMemSendAfterCloseTyped verifies that Send and SendBuf on a closed
// MemEndpoint return ErrTransportClosed, while sending to a closed *peer*
// returns a different error — the distinction the fault-tolerance layer
// relies on to tell "we shut down" apart from "peer dead".
func TestMemSendAfterCloseTyped(t *testing.T) {
	nw := NewMemNetwork(2)
	e0, e1 := nw.Endpoint(0), nw.Endpoint(1)
	defer e1.Close()

	e0.Close()
	if err := e0.Send(1, []byte("x")); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Send after Close: got %v, want ErrTransportClosed", err)
	}
	buf := append(GetBuf(), 'x')
	if err := e0.SendBuf(1, buf); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("SendBuf after Close: got %v, want ErrTransportClosed", err)
	}

	// Peer-closed must NOT look like local-closed.
	if err := e1.Send(0, []byte("x")); err == nil || errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Send to closed peer: got %v, want a non-ErrTransportClosed error", err)
	}
}

// TestTCPSendAfterCloseTyped verifies the same contract for the TCP
// transport.
func TestTCPSendAfterCloseTyped(t *testing.T) {
	addrs := testport.Addrs(2)
	var ts [2]*TCP
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = NewTCP(i, addrs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	defer ts[1].Close()

	ts[0].Close()
	if err := ts[0].Send(1, []byte("x")); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Send after Close: got %v, want ErrTransportClosed", err)
	}
	buf := append(GetBuf(), 'x')
	if err := ts[0].SendBuf(1, buf); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("SendBuf after Close: got %v, want ErrTransportClosed", err)
	}
}
