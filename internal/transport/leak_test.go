package transport

import (
	"charmgo/internal/testport"
	"sync"
	"testing"

	"charmgo/internal/leakcheck"
)

// TestMemCloseNoGoroutineLeak verifies the in-memory endpoints reap their
// pump goroutines on Close.
func TestMemCloseNoGoroutineLeak(t *testing.T) {
	leakcheck.Check(t)
	nw := NewMemNetwork(2)
	e0, e1 := nw.Endpoint(0), nw.Endpoint(1)
	got := make(chan []byte, 1)
	e1.SetHandler(func(from int, frame []byte) {
		select {
		case got <- append([]byte(nil), frame...):
		default:
		}
	})
	if err := e0.Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if string(<-got) != "ping" {
		t.Fatal("frame not delivered")
	}
	e0.Close()
	e1.Close()
}

// TestTCPCloseNoGoroutineLeak verifies the TCP transport reaps its accept
// loop and per-connection readers on Close, after real traffic has opened
// connections in both directions.
func TestTCPCloseNoGoroutineLeak(t *testing.T) {
	leakcheck.Check(t)
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
	got := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		ts[i].SetHandler(func(from int, frame []byte) {
			select {
			case got <- struct{}{}:
			default:
			}
		})
	}
	if err := ts[0].Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := ts[1].Send(0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	<-got
	<-got
	for _, tr := range ts {
		tr.Close()
	}
}
