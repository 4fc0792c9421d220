package transport

import (
	"charmgo/internal/testport"
	"fmt"
	"sync"
	"testing"
	"time"
)

func collectFrames(t Transport) (*sync.Mutex, *[][2]any) {
	var mu sync.Mutex
	var got [][2]any
	t.SetHandler(func(from int, frame []byte) {
		mu.Lock()
		got = append(got, [2]any{from, string(frame)})
		mu.Unlock()
	})
	return &mu, &got
}

func waitFor(tb testing.TB, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatal("condition not met within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMemPairwise(t *testing.T) {
	nw := NewMemNetwork(3)
	mu, got := collectFrames(nw.Endpoint(1))
	if err := nw.Endpoint(0).Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := nw.Endpoint(2).Send(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 2 })
	mu.Lock()
	defer mu.Unlock()
	seen := map[string]int{}
	for _, g := range *got {
		seen[g[1].(string)] = g[0].(int)
	}
	if seen["a"] != 0 || seen["b"] != 2 {
		t.Errorf("got %v", *got)
	}
}

func TestMemFIFOPerSender(t *testing.T) {
	nw := NewMemNetwork(2)
	mu, got := collectFrames(nw.Endpoint(1))
	const n = 200
	for i := 0; i < n; i++ {
		nw.Endpoint(0).Send(1, []byte(fmt.Sprintf("%04d", i)))
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == n })
	mu.Lock()
	defer mu.Unlock()
	for i, g := range *got {
		if g[1].(string) != fmt.Sprintf("%04d", i) {
			t.Fatalf("frame %d out of order: %v", i, g[1])
		}
	}
}

func TestMemSendCopiesBuffer(t *testing.T) {
	nw := NewMemNetwork(2)
	mu, got := collectFrames(nw.Endpoint(1))
	buf := []byte("hello")
	nw.Endpoint(0).Send(1, buf)
	buf[0] = 'X' // mutate after send; receiver must see the original
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if (*got)[0][1].(string) != "hello" {
		t.Errorf("got %q", (*got)[0][1])
	}
}

// TestMemSendBuf exercises the zero-copy path: the pooled frame is handed
// over whole and recycled after the handler returns.
func TestMemSendBuf(t *testing.T) {
	nw := NewMemNetwork(2)
	mu, got := collectFrames(nw.Endpoint(1))
	for i := 0; i < 3; i++ {
		buf := GetBuf()
		buf = append(buf, []byte(fmt.Sprintf("msg%d", i))...)
		if err := nw.Endpoint(0).SendBuf(1, buf); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 3 })
	mu.Lock()
	defer mu.Unlock()
	for i, g := range *got {
		if g[1].(string) != fmt.Sprintf("msg%d", i) {
			t.Errorf("frame %d: got %q", i, g[1])
		}
	}
}

// TestMemSendBufAllocs: a steady flow of SendBuf frames through a Mem pair
// allocates nothing. The pooled buffer comes back after the handler, and the
// destination queues frames in the slice its pump drained before, emptied;
// it read 1 allocation per frame while the pump dropped that slice.
func TestMemSendBufAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates and drops sync.Pool items")
	}
	nw := NewMemNetwork(2)
	defer nw.Endpoint(0).Close()
	defer nw.Endpoint(1).Close()
	got := make(chan struct{})
	nw.Endpoint(1).SetHandler(func(int, []byte) { got <- struct{}{} })
	send := func() {
		if err := nw.Endpoint(0).SendBuf(1, append(GetBuf(), "ping"...)); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 100; i++ {
		send() // until the pool holds every buffer in flight
	}
	if a := testing.AllocsPerRun(1000, send); a != 0 {
		t.Errorf("a SendBuf frame to its handler costs %.2f allocs, want 0", a)
	}
}

func TestBufPoolRoundtrip(t *testing.T) {
	b := GetBuf()
	if len(b) != PrefixLen {
		t.Fatalf("GetBuf len = %d, want %d", len(b), PrefixLen)
	}
	b = append(b, "payload"...)
	PutBuf(b)
	b2 := GetBuf()
	if len(b2) != PrefixLen {
		t.Fatalf("recycled GetBuf len = %d, want %d", len(b2), PrefixLen)
	}
	PutBuf(b2)
	PutBuf(nil)             // must not panic
	PutBuf(make([]byte, 1)) // under-prefix buffer is dropped, not pooled
}

func TestMemClosedEndpoint(t *testing.T) {
	nw := NewMemNetwork(2)
	nw.Endpoint(1).Close()
	if err := nw.Endpoint(0).Send(1, []byte("x")); err == nil {
		t.Error("send to closed endpoint succeeded")
	}
}

func TestMemInvalidNode(t *testing.T) {
	nw := NewMemNetwork(2)
	if err := nw.Endpoint(0).Send(5, []byte("x")); err == nil {
		t.Error("send to invalid node succeeded")
	}
}

func TestTCPMesh(t *testing.T) {
	addrs := testport.Addrs(3)
	var ts [3]*TCP
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
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
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	mu, got := collectFrames(ts[2])
	if err := ts[0].Send(2, []byte("from0")); err != nil {
		t.Fatal(err)
	}
	if err := ts[1].Send(2, []byte("from1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 2 })
	mu.Lock()
	defer mu.Unlock()
	seen := map[string]int{}
	for _, g := range *got {
		seen[g[1].(string)] = g[0].(int)
	}
	if seen["from0"] != 0 || seen["from1"] != 1 {
		t.Errorf("got %v", *got)
	}
}

func TestTCPLargeFrames(t *testing.T) {
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
	defer ts[0].Close()
	defer ts[1].Close()
	var mu sync.Mutex
	var sizes []int
	ts[1].SetHandler(func(from int, frame []byte) {
		mu.Lock()
		sizes = append(sizes, len(frame))
		mu.Unlock()
	})
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	for k := 0; k < 3; k++ {
		if err := ts[0].Send(1, big); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(sizes) == 3 })
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sizes {
		if s != 1<<20 {
			t.Errorf("frame size %d", s)
		}
	}
}

// TestTCPSendBuf sends pooled frames over the wire; the length prefix is
// written into the buffer's reserved headroom, so the payload must arrive
// intact and unprefixed.
func TestTCPSendBuf(t *testing.T) {
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
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer ts[0].Close()
	defer ts[1].Close()
	mu, got := collectFrames(ts[1])
	for i := 0; i < 50; i++ {
		buf := GetBuf()
		buf = append(buf, []byte(fmt.Sprintf("%04d", i))...)
		if err := ts[0].SendBuf(1, buf); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 50 })
	mu.Lock()
	defer mu.Unlock()
	for i, g := range *got {
		if g[1].(string) != fmt.Sprintf("%04d", i) {
			t.Fatalf("frame %d out of order or corrupt: %q", i, g[1])
		}
	}
}

// TestDialRetryDeadline checks that dialing a dead address fails within the
// deadline instead of burning a fixed number of instant attempts.
func TestDialRetryDeadline(t *testing.T) {
	start := time.Now()
	_, err := dialRetry(testport.Addrs(1)[0], 300*time.Millisecond)
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dialRetry took %v, deadline not honoured", d)
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
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
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer ts[0].Close()
	defer ts[1].Close()
	var mu sync.Mutex
	count := 0
	ts[1].SetHandler(func(from int, frame []byte) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var sw sync.WaitGroup
	for g := 0; g < 8; g++ {
		sw.Add(1)
		go func() {
			defer sw.Done()
			for i := 0; i < 100; i++ {
				ts[0].Send(1, []byte("payload")) //nolint:errcheck
			}
		}()
	}
	sw.Wait()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return count == 800 })
}
