package transport

import (
	"charmgo/internal/testport"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// elasticFrames installs a handler that records (from, first payload byte).
func elasticFrames(t Transport) (read func() [][2]int) {
	var mu sync.Mutex
	var got [][2]int
	t.SetHandler(func(from int, frame []byte) {
		mu.Lock()
		got = append(got, [2]int{from, int(frame[0])})
		mu.Unlock()
	})
	return func() [][2]int {
		mu.Lock()
		defer mu.Unlock()
		return append([][2]int(nil), got...)
	}
}

func waitFrames(t *testing.T, read func() [][2]int, n int) [][2]int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := read()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames, have %v", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPElasticPartialMesh: a 3-slot cluster starts with only nodes 0 and 1
// meshed; they must come up and exchange frames without slot 2 existing at
// all. Slot 2 then starts isolated, AddPeers its way in, and traffic flows
// in both directions; finally the actives DropPeer it cleanly.
func TestTCPElasticPartialMesh(t *testing.T) {
	addrs := testport.Addrs(3)
	mesh := []int{0, 1}
	ts := make([]*TCP, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for _, i := range mesh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = NewTCPElastic(i, addrs, mesh, 10*time.Second)
		}(i)
	}
	wg.Wait()
	for _, i := range mesh {
		if errs[i] != nil {
			t.Fatalf("node %d startup: %v", i, errs[i])
		}
	}
	r0 := elasticFrames(ts[0])
	r1 := elasticFrames(ts[1])
	if err := ts[0].Send(1, []byte{10}); err != nil {
		t.Fatalf("send 0->1: %v", err)
	}
	if err := ts[1].Send(0, []byte{20}); err != nil {
		t.Fatalf("send 1->0: %v", err)
	}
	waitFrames(t, r0, 1)
	waitFrames(t, r1, 1)
	// No connection to the unstarted slot: Send must fail, not hang.
	if err := ts[0].Send(2, []byte{99}); err == nil {
		t.Fatal("send to unconnected slot succeeded")
	}

	// The joiner starts isolated and dials both actives.
	j, err := NewTCPElastic(2, addrs, mesh, 10*time.Second)
	if err != nil {
		t.Fatalf("joiner startup: %v", err)
	}
	r2 := elasticFrames(j)
	if err := j.AddPeer(0, 5*time.Second); err != nil {
		t.Fatalf("AddPeer(0): %v", err)
	}
	if err := j.AddPeer(1, 5*time.Second); err != nil {
		t.Fatalf("AddPeer(1): %v", err)
	}
	if err := j.AddPeer(1, time.Second); err != nil {
		t.Fatalf("repeat AddPeer not idempotent: %v", err)
	}
	if err := j.Send(0, []byte{30}); err != nil {
		t.Fatalf("joiner send to 0: %v", err)
	}
	if err := j.Send(1, []byte{31}); err != nil {
		t.Fatalf("joiner send to 1: %v", err)
	}
	got0 := waitFrames(t, r0, 2)
	if got0[1] != [2]int{2, 30} {
		t.Fatalf("node 0 frames = %v, want joiner frame last", got0)
	}
	waitFrames(t, r1, 2)
	// Replies flow back over the accepted connections.
	if err := ts[0].Send(2, []byte{40}); err != nil {
		t.Fatalf("send 0->joiner: %v", err)
	}
	buf := append(GetBuf(), 41)
	if err := ts[1].SendBuf(2, buf); err != nil {
		t.Fatalf("sendbuf 1->joiner: %v", err)
	}
	got2 := waitFrames(t, r2, 2)
	seen := map[[2]int]bool{}
	for _, f := range got2 {
		seen[f] = true
	}
	if !seen[[2]int{0, 40}] || !seen[[2]int{1, 41}] {
		t.Fatalf("joiner frames = %v, want replies from 0 and 1", got2)
	}

	// Planned departure: both actives drop the joiner; sends fail again.
	ts[0].DropPeer(2)
	ts[1].DropPeer(2)
	if err := ts[0].Send(2, []byte{50}); err == nil {
		t.Fatal("send to dropped peer succeeded")
	}
	_ = j.Close()
	_ = ts[0].Close()
	_ = ts[1].Close()
}

// TestTCPElasticJoinerHello verifies the joiner's AddPeer handshake carries
// its node id: the accepting side must attribute inbound frames to the
// dialer's slot, not to the order connections arrived in.
func TestTCPElasticJoinerHello(t *testing.T) {
	addrs := testport.Addrs(3)
	a, err := NewTCPElastic(0, addrs, []int{0}, 10*time.Second)
	if err != nil {
		t.Fatalf("node 0 startup: %v", err)
	}
	read := elasticFrames(a)
	j2, err := NewTCPElastic(2, addrs, []int{0}, 10*time.Second)
	if err != nil {
		t.Fatalf("node 2 startup: %v", err)
	}
	j2.SetHandler(func(int, []byte) {})
	if err := j2.AddPeer(0, 5*time.Second); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	var frame [5]byte
	binary.LittleEndian.PutUint32(frame[:4], 0)
	frame[4] = 7
	if err := j2.Send(0, frame[4:]); err != nil {
		t.Fatalf("send: %v", err)
	}
	got := waitFrames(t, read, 1)
	if got[0] != [2]int{2, 7} {
		t.Fatalf("frame attributed to %v, want node 2", got[0])
	}
	_ = j2.Close()
	_ = a.Close()
}

// AddPeer dials a provisioned slot that was not part of the startup mesh
// and adds the connection. It is how a joining node attaches to each active
// member before asking the coordinator for admission. Idempotent: an
// existing connection (from either direction) is kept. timeout <= 0 uses
// the transport's handshake timeout.
func (t *TCP) AddPeer(node int, timeout time.Duration) error {
	if node == t.id {
		return nil
	}
	if node < 0 || node >= len(t.addrs) {
		return fmt.Errorf("transport: bad node id %d (of %d)", node, len(t.addrs))
	}
	if timeout <= 0 {
		timeout = t.hsTimeout
	}
	t.mu.Lock()
	_, have := t.conns[node]
	done := t.done
	t.mu.Unlock()
	if done {
		return ErrTransportClosed
	}
	if have {
		return nil
	}
	conn, err := dialRetry(t.addrs[node], timeout)
	if err != nil {
		return fmt.Errorf("transport: node %d add peer %d (%s): %w", t.id, node, t.addrs[node], err)
	}
	if err := sendHello(conn, t.id); err != nil {
		conn.Close()
		return fmt.Errorf("transport: node %d add peer %d: hello: %w", t.id, node, err)
	}
	t.addConn(node, conn)
	return nil
}
