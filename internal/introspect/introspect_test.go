package introspect

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func sampleSnap(node, seq int) NodeSnapshot {
	return NodeSnapshot{
		Node:        node,
		BasePE:      node * 2,
		Seq:         int64(seq),
		UnixNano:    int64(seq) * 1e9,
		WindowNanos: int64(250 * time.Millisecond),
		TotalPEs:    6,
		PEs: []PESample{
			{PE: node * 2, Util: 0.5, EMs: 10, TotalEMs: 100},
			{PE: node*2 + 1, Util: 0.25, EMs: 5, TotalEMs: 50},
		},
	}
}

func TestClusterPutAndSnapshot(t *testing.T) {
	c := NewCluster()
	c.Reset(3, 6, 250*time.Millisecond)
	c.Put(sampleSnap(0, 1))
	c.Put(sampleSnap(2, 4))

	s := c.Snapshot()
	if s.Nodes != 3 || s.TotalPEs != 6 || s.SampleInterval != 250*time.Millisecond {
		t.Fatalf("shape = %d nodes %d PEs %v", s.Nodes, s.TotalPEs, s.SampleInterval)
	}
	if len(s.Node) != 3 {
		t.Fatalf("len(Node) = %d", len(s.Node))
	}
	if s.Node[0].Missing || s.Node[2].Missing {
		t.Error("reported nodes marked missing")
	}
	if !s.Node[1].Missing {
		t.Error("silent node 1 not marked missing")
	}
	if s.Node[1].Node != 1 {
		t.Errorf("missing view carries node id %d, want 1", s.Node[1].Node)
	}
	if s.Node[2].Seq != 4 {
		t.Errorf("node 2 seq = %d, want 4", s.Node[2].Seq)
	}
}

func TestClusterPutOrdering(t *testing.T) {
	c := NewCluster()
	c.Reset(2, 4, time.Second)
	c.Put(sampleSnap(1, 7))
	c.Put(sampleSnap(1, 3)) // stale report raced over the wire: dropped
	if got := c.Snapshot().Node[1].Seq; got != 7 {
		t.Errorf("seq after stale Put = %d, want 7", got)
	}
	// Out-of-range nodes must be ignored, not panic.
	c.Put(sampleSnap(-1, 1))
	c.Put(sampleSnap(9, 1))
}

func TestClusterStaleness(t *testing.T) {
	c := NewCluster()
	c.Reset(1, 2, time.Millisecond) // staleAfter floors at 1s
	c.Put(sampleSnap(0, 1))
	if s := c.Snapshot(); s.Node[0].Stale {
		t.Error("fresh sample marked stale")
	}
	// Backdate the receive time past the floor instead of sleeping.
	c.mu.Lock()
	c.recvAt[0] = time.Now().Add(-2 * time.Second)
	c.mu.Unlock()
	s := c.Snapshot()
	if !s.Node[0].Stale {
		t.Error("2s-old sample (1ms interval) not marked stale")
	}
	if s.Node[0].AgeMillis < 1000 {
		t.Errorf("AgeMillis = %v, want >= 1000", s.Node[0].AgeMillis)
	}
}

func TestClusterLiveness(t *testing.T) {
	c := NewCluster()
	c.Reset(2, 4, time.Second)
	c.Put(sampleSnap(0, 1))
	c.SetLiveness(func(node int) bool { return node == 0 })
	s := c.Snapshot()
	if s.Node[0].Dead {
		t.Error("live node marked dead")
	}
	if !s.Node[1].Dead {
		t.Error("dead node not marked dead")
	}
}

func TestWriteSnapshotJSONRoundTrip(t *testing.T) {
	c := NewCluster()
	c.Reset(2, 4, 250*time.Millisecond)
	c.Put(sampleSnap(0, 2))
	var b strings.Builder
	if err := c.WriteSnapshotJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s ClusterSnapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if s.Nodes != 2 || s.SampleInterval != 250*time.Millisecond {
		t.Errorf("round-tripped shape = %d nodes interval %v", s.Nodes, s.SampleInterval)
	}
	if len(s.Node[0].PEs) != 2 || s.Node[0].PEs[0].Util != 0.5 {
		t.Errorf("round-tripped PEs = %+v", s.Node[0].PEs)
	}
}

func TestHooksNotWired(t *testing.T) {
	c := NewCluster()
	c.Reset(1, 1, time.Second)
	if err := c.WriteTraceWindow(io.Discard, time.Second); !errors.Is(err, ErrNotWired) {
		t.Errorf("WriteTraceWindow unwired = %v, want ErrNotWired", err)
	}
	if err := c.TriggerLB(io.Discard); !errors.Is(err, ErrNotWired) {
		t.Errorf("TriggerLB unwired = %v, want ErrNotWired", err)
	}
}

func TestTriggerLBJSON(t *testing.T) {
	c := NewCluster()
	c.SetLBTrigger(func() ([]int32, error) { return []int32{3, 7}, nil })
	var b strings.Builder
	if err := c.TriggerLB(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Triggered []int32 `json:"triggered"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Triggered) != 2 || out.Triggered[0] != 3 || out.Triggered[1] != 7 {
		t.Errorf("triggered = %v", out.Triggered)
	}

	c.SetLBTrigger(func() ([]int32, error) { return nil, nil })
	b.Reset()
	if err := c.TriggerLB(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(b.String()); got != `{"triggered":[]}` {
		t.Errorf("nil cids rendered %q, want empty array", got)
	}

	wantErr := errors.New("no strategy")
	c.SetLBTrigger(func() ([]int32, error) { return nil, wantErr })
	if err := c.TriggerLB(io.Discard); !errors.Is(err, wantErr) {
		t.Errorf("TriggerLB error = %v", err)
	}
}

func TestTraceWindowHook(t *testing.T) {
	c := NewCluster()
	var gotWindow time.Duration
	c.SetTraceWindow(func(w io.Writer, window time.Duration) error {
		gotWindow = window
		_, err := io.WriteString(w, "{}")
		return err
	})
	var b strings.Builder
	if err := c.WriteTraceWindow(&b, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if gotWindow != 5*time.Second || b.String() != "{}" {
		t.Errorf("hook saw window %v wrote %q", gotWindow, b.String())
	}
}
