package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) || !near(median(xs), 5.5) {
		t.Fatalf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); !near(got, 1.0) {
		t.Fatalf("spread = %v, want 1.0", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3 values = %v, %v; want 1, 3", q1, q3)
	}
}

func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{20, 0, false}, // ten beyond would leave the tail at or below the median
		{21, 1 - 10.0/21, true},
		{40, 0.75, true}, // a 24 s stencil run
		{999, 1 - 10.0/999, true},
		{1000, 0.99, true}, // the smallest window that supports p99
		{50000, 0.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && !near(p, c.want)) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestWithinBound(t *testing.T) {
	for _, c := range []struct {
		base, cur, bound float64
		higher, want     bool
	}{
		{100, 91, 0.10, true, true},   // throughput down 9 %
		{100, 89, 0.10, true, false},  // down 11 %
		{100, 150, 0.10, true, true},  // better is always inside
		{10, 10.9, 0.10, false, true}, // latency up 9 %
		{10, 11.1, 0.10, false, false},
		{10, 2, 0.10, false, true},
		{1000, 1031, 0.03, false, false}, // alloc_b_per_op
	} {
		if got := withinBound(c.base, c.cur, c.bound, c.higher); got != c.want {
			t.Errorf("withinBound(%v, %v, %v, higher=%v) = %v, want %v", c.base, c.cur, c.bound, c.higher, got, c.want)
		}
	}
}

// win builds a window that did ops in dur at half the speed of its reference.
func win(ops int64, dur time.Duration) window {
	return window{ops: ops, dur: dur, ratio: 0.5, alloc: uint64(100 * ops)}
}

func TestSummarizeIsMedianOverWindowsNotPooled(t *testing.T) {
	r := &passResult{Metrics: map[string]float64{"setup_s": 0.1}}
	for i := 0; i < 25; i++ {
		r.windows = append(r.windows, win(1000, time.Second))
	}
	// five windows hit by a burst: ten times slower
	for i := 0; i < 5; i++ {
		r.windows = append(r.windows, win(100, time.Second))
	}
	r.summarize()
	if len(r.Invalid) != 0 {
		t.Fatalf("invalid: %v", r.Invalid)
	}
	if got := r.Metrics["ops_per_s"]; !near(got, 1000) {
		t.Errorf("ops_per_s = %v, want the median window 1000 (pooled would be 850)", got)
	}
	if got := r.Metrics["speedup_vs_seq"]; !near(got, 0.5) {
		t.Errorf("speedup_vs_seq = %v, want 0.5", got)
	}
	if got := r.Metrics["alloc_b_per_op"]; !near(got, 100) {
		t.Errorf("alloc_b_per_op = %v, want 100", got)
	}
	// no caller waits: p50 is the median window's time per op, the tail the
	// percentile 30 windows allow (ten beyond: p66.7), which lands in the burst
	if got := r.Metrics["op_p50_us"]; !near(got, 1000) {
		t.Errorf("op_p50_us = %v, want 1000", got)
	}
	if !near(r.TailPct, 1-10.0/30) {
		t.Errorf("tail percentile = %v, want %v", r.TailPct, 1-10.0/30)
	}
}

func TestSummarizeLatencyPercentilesPerWindow(t *testing.T) {
	lat := make([]float64, minP99Samples)
	for i := range lat {
		lat[i] = 10
	}
	for i := 0; i < 20; i++ {
		lat[i] = 1000 // 2 % slow requests: beyond p99
	}
	r := &passResult{Metrics: map[string]float64{"setup_s": 0.1}}
	for i := 0; i < 3; i++ {
		w := win(int64(len(lat)), time.Second)
		w.lat = lat
		r.windows = append(r.windows, w)
	}
	r.summarize()
	if len(r.Invalid) != 0 {
		t.Fatalf("invalid: %v", r.Invalid)
	}
	if r.Metrics["op_p50_us"] != 10 || r.Metrics["op_p99_us"] != 1000 || r.TailPct != 0.99 {
		t.Errorf("p50 = %v, p99 = %v at %v; want 10, 1000 at 0.99", r.Metrics["op_p50_us"], r.Metrics["op_p99_us"], r.TailPct)
	}

	// one window short of samples: the pass is refused
	short := win(10, time.Second)
	short.lat = lat[:minP99Samples-1]
	r = &passResult{Metrics: map[string]float64{"setup_s": 0.1}, windows: []window{r.windows[0], short}}
	r.summarize()
	if len(r.Invalid) == 0 {
		t.Error("a window with fewer samples than p99 needs must invalidate the pass")
	}
}

func TestSummarizeRefusesTooFewWindows(t *testing.T) {
	r := &passResult{Metrics: map[string]float64{"setup_s": 0.1}}
	for i := 0; i < 2*beyond; i++ {
		r.windows = append(r.windows, win(1000, time.Second))
	}
	r.summarize()
	if len(r.Invalid) == 0 {
		t.Error("20 windows cannot carry a tail with ten windows beyond it; the pass must be invalid")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 3, Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
