package elastic

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/leakcheck"
	"charmgo/internal/metrics"
)

// TestGateWatermarks pins the admission policy: pass below the low
// watermark, delay between the watermarks, shed at the high one — with the
// counters and depth histogram tracking each outcome.
func TestGateWatermarks(t *testing.T) {
	reg := metrics.NewRegistry()
	depth := 0
	g := NewGate(reg, GateOptions{
		HighWater: 10,
		LowWater:  5,
		Delay:     time.Millisecond,
		Depth:     func() int { return depth },
	})

	depth = 0
	if err := g.Admit(); err != nil {
		t.Fatalf("admit at depth 0: %v", err)
	}
	depth = 7
	if err := g.Admit(); err != nil {
		t.Fatalf("admit at depth 7 (delay zone): %v", err)
	}
	if got := g.delayed.Value(); got != 1 {
		t.Fatalf("delayed = %d, want 1", got)
	}
	depth = 10
	if err := g.Admit(); err != ErrOverloaded {
		t.Fatalf("admit at depth 10 = %v, want ErrOverloaded", err)
	}
	if got := g.Rejected(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	var sb strings.Builder
	reg.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"charmgo_admission_rejected_total 1",
		"charmgo_admission_delayed_total 1",
		"charmgo_admission_mailbox_depth_count 3",
		"charmgo_admission_mailbox_depth_p99",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestGateOffPathAllocs guards the alloc-free promise: with no registry,
// admitting below the low watermark performs zero allocations.
func TestGateOffPathAllocs(t *testing.T) {
	g := NewGate(nil, GateOptions{HighWater: 1 << 20, Depth: func() int { return 1 }})
	if n := testing.AllocsPerRun(1000, func() {
		if err := g.Admit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("gate admission allocates %.1f per request with metrics off, want 0", n)
	}
}

// TestServiceJoinLeaveUnderLoad is the subsystem's flagship regression: a
// 2-of-3 kvservice cluster under continuous load admits node 2, then
// retires node 1 — with failure detectors armed on every node — and must
// finish with every reply delivered, every key readable, and zero detector
// false positives. Also a leak check: the retired node's goroutines must
// be gone when the cluster closes.
func TestServiceJoinLeaveUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	reg := metrics.NewRegistry()
	svc, err := NewService(ServiceConfig{
		Nodes:         3,
		PEs:           2,
		Shards:        24,
		InitialActive: []int{0, 1},
		Metrics:       reg,
		Detectors:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const keys = 48
	for i := 0; i < keys; i++ {
		if err := svc.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("warmup Put: %v", err)
		}
	}

	stop := make(chan struct{})
	var sent, ok atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%d", (i*2+w)%keys)
				sent.Add(1)
				if w == 0 {
					if err := svc.Put(k, "u"); err == nil {
						ok.Add(1)
					}
				} else {
					if _, err := svc.Get(k); err == nil {
						ok.Add(1)
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	if err := svc.Join(2); err != nil {
		t.Fatalf("Join(2) under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := svc.Leave(1); err != nil {
		t.Fatalf("Leave(1) under load: %v", err)
	}
	close(stop)
	wg.Wait()

	if s, o := sent.Load(), ok.Load(); s != o {
		t.Fatalf("lost requests across membership changes: sent %d, ok %d", s, o)
	}
	if got := svc.ActiveNodes(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("active nodes = %v, want [0 2]", got)
	}
	for i := 0; i < keys; i++ {
		v, err := svc.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("post-transition Get(k%d): %v", i, err)
		}
		if v == "" {
			t.Fatalf("key k%d lost across membership changes", i)
		}
	}
	if fp := svc.FalsePositives(); fp != 0 {
		t.Fatalf("failure detector fired %d times during planned membership changes", fp)
	}
}

// TestServiceShedsUnderBacklog forces the gate's view of the backlog above
// the high watermark and asserts requests are shed (not queued) and counted.
func TestServiceShedsUnderBacklog(t *testing.T) {
	leakcheck.Check(t)
	fake := int64(0)
	svc, err := NewService(ServiceConfig{
		Nodes: 1,
		PEs:   1,
		Gate: GateOptions{
			HighWater: 8,
			Depth:     func() int { return int(atomic.LoadInt64(&fake)) },
		},
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Put("a", "1"); err != nil {
		t.Fatalf("Put under no load: %v", err)
	}
	atomic.StoreInt64(&fake, 100)
	if err := svc.Put("b", "2"); err != ErrOverloaded {
		t.Fatalf("Put above high water = %v, want ErrOverloaded", err)
	}
	atomic.StoreInt64(&fake, 0)
	if v, err := svc.Get("a"); err != nil || v != "1" {
		t.Fatalf("Get after shed = %q, %v", v, err)
	}
	if got := svc.Gate().Rejected(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// TestServiceCloseImmediately boots, serves one request and closes, many
// times over. Close calls Exit on every node, and a node the request never
// touched may not have entered Start yet: Exit must find that node's PEs
// (built by NewRuntime) rather than a half-filled slice.
func TestServiceCloseImmediately(t *testing.T) {
	boots := 200
	if testing.Short() {
		boots = 20
	}
	for i := 0; i < boots; i++ {
		svc, err := NewService(ServiceConfig{Nodes: 3, PEs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Put("k", "v"); err != nil {
			t.Fatalf("boot %d: %v", i, err)
		}
		svc.Close()
	}
}

// TestBootIgnoresRequestTimeout checks that RequestTimeout bounds requests,
// not the cluster's boot: a service whose requests may take a nanosecond
// still comes up.
func TestBootIgnoresRequestTimeout(t *testing.T) {
	svc, err := NewService(ServiceConfig{Nodes: 2, PEs: 1, Shards: 2, RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
}

// TestCallTimeoutStillFires checks the pooled request timer against a shard
// that never replies (its node's endpoint is closed, so the request frame is
// dropped): the call fails with the timeout error after RequestTimeout, the
// second and third time on a pooled timer that has already fired once.
func TestCallTimeoutStillFires(t *testing.T) {
	const timeout = 5 * time.Millisecond
	svc, err := NewService(ServiceConfig{Nodes: 2, PEs: 1, Shards: 2, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.nw.Endpoint(1).Close(); err != nil { // shard 1 lives on node 1
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, err := svc.call(1, "Len")
		if err == nil || !strings.Contains(err.Error(), "Len on shard 1 timed out") {
			t.Fatalf("call %d to a silent shard: err = %v, want a timeout", i, err)
		}
		if d := time.Since(start); d < timeout {
			t.Errorf("call %d timed out after %v, before RequestTimeout %v", i, d, timeout)
		}
	}
}
