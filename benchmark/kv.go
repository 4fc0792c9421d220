package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"charmgo/internal/elastic"
	"charmgo/internal/metrics"
)

// kv_closed: the ROADMAP flagship. elastic.NewService with 3 nodes × 1 PE,
// 24 shards, failure detectors on, Mem transport; kvKeys keys preloaded with
// 64-byte values; kvClients client goroutines (= nproc) each issue Get (75 %)
// or Put (25 %) on their own half of the keys and wait for each reply.
const (
	kvNodes  = 3
	kvShards = 24
	kvKeys   = 1024
	// kvBootKeys is how many of the keys a boot writes inside the timed
	// set-up: enough requests that every node has served some, so a boot that
	// returns is a service that works. The rest are loaded before the first
	// window, untimed: the whole preload takes 0.5 s, of which a run could
	// afford five samples, and those spread 25 % (README rule 5).
	kvBootKeys = 32
	kvClients  = 2
	kvValLen   = 64
	kvVals     = 256 // distinct values a Put chooses from
	// kvTimer and kvTimerWaits size the plain-Go reference of this workload
	// (timerWaitUS): a request that misses the fast path waits for a
	// background timer, and so does the reference.
	kvTimer      = 100 * time.Microsecond
	kvTimerWaits = 25
	// kvMaxLat is the capacity of a client's per-window latency buffer. It is
	// kept small (0.5 MB) because the harness's own live heap moves the GC's
	// pacing of the system under test; a window that would overflow it stops
	// recording, at 40 times today's request rate.
	kvMaxLat = 1 << 16
)

// kvClient is one closed-loop caller with its own keys, its own random
// stream and its own record of what it last wrote (read-your-writes).
type kvClient struct {
	rng    *rand.Rand
	lo, hi int       // its slice of the key space
	lat    []float64 // µs, reused across windows
}

// kvState is the key space plus the expected value of every key in one
// store.
type kvState struct {
	keys   []string
	vals   []string
	expect []int // index into vals of the last acknowledged write
}

func newKVState(rng *rand.Rand) *kvState {
	st := &kvState{keys: make([]string, kvKeys), vals: make([]string, kvVals), expect: make([]int, kvKeys)}
	for i := range st.keys {
		st.keys[i] = fmt.Sprintf("key-%04d", i)
	}
	const hex = "0123456789abcdef"
	for i := range st.vals {
		b := make([]byte, kvValLen)
		for j := range b {
			b[j] = hex[rng.Intn(len(hex))]
		}
		st.vals[i] = string(b)
	}
	return st
}

// preload writes keys lo..hi-1 once, sequentially.
func (st *kvState) preload(s *elastic.Service, lo, hi int) error {
	for i := lo; i < hi; i++ {
		st.expect[i] = i % kvVals
		if err := s.Put(st.keys[i], st.vals[st.expect[i]]); err != nil {
			return fmt.Errorf("preload %s: %w", st.keys[i], err)
		}
	}
	return nil
}

// sweep reads keys lo..hi-1 back and counts the ones that differ from the
// last acknowledged write.
func (st *kvState) sweep(s *elastic.Service, lo, hi int) (failed int64) {
	for i := lo; i < hi; i++ {
		if v, err := s.Get(st.keys[i]); err != nil || v != st.vals[st.expect[i]] {
			failed++
		}
	}
	return failed
}

// run issues requests against s until d has passed — and, should the box
// stall for most of d, until the client has its share of the samples the
// window's p99 needs — and returns how many it made and how many failed
// (error, shed, timeout or a read that did not return the client's last
// write).
func (c *kvClient) run(s *elastic.Service, st *kvState, d time.Duration) (ops, failed int64) {
	c.lat = c.lat[:0]
	start := time.Now()
	for t0 := start; t0.Sub(start) < d || ops < minP99Samples/kvClients; {
		k := c.lo + c.rng.Intn(c.hi-c.lo)
		var err error
		if c.rng.Intn(4) == 0 {
			vi := c.rng.Intn(kvVals)
			if err = s.Put(st.keys[k], st.vals[vi]); err == nil {
				st.expect[k] = vi
			}
		} else {
			var v string
			if v, err = s.Get(st.keys[k]); err == nil && v != st.vals[st.expect[k]] {
				err = errors.New("stale read")
			}
		}
		t1 := time.Now()
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, float64(t1.Sub(t0))/1e3)
		}
		ops++
		if err != nil {
			failed++
		}
		t0 = t1
	}
	return ops, failed
}

type kvSys struct {
	svc     *elastic.Service
	reg     *metrics.Registry
	st      *kvState
	loaded  int // keys 0..loaded-1 have been written
	clients []*kvClient
}

// timerWaitUS is the plain-Go work kv_closed's tail is compared with: the
// median time, in µs, a goroutine waits on a kvTimer timer. kv_closed is
// bound by timers, not by the CPU — its slow requests sit in the aggregator
// until the runtime's background flush tick — and what such a tick costs is a
// property of the machine (about 1.1 ms on this guest, whose timers are
// coarse), as the speed of a core is for the stencils. Measured right after
// the window's requests, it shares their noise (README rule 4).
func timerWaitUS() float64 {
	waits := make([]float64, kvTimerWaits)
	for i := range waits {
		t0 := time.Now()
		time.Sleep(kvTimer)
		waits[i] = float64(time.Since(t0)) / 1e3
	}
	return median(waits)
}

func bootKV(o bootOpts) (system, error) {
	rng := o.rng()
	s := &kvSys{st: newKVState(rng)}
	if o.observe {
		s.reg = metrics.NewRegistry()
	}
	svc, err := elastic.NewService(elastic.ServiceConfig{
		Nodes:             kvNodes,
		PEs:               1,
		Shards:            kvShards,
		Metrics:           s.reg,
		Detectors:         true,
		HeartbeatInterval: 50 * time.Millisecond,
		SuspicionTimeout:  10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	s.svc = svc
	if err := s.st.preload(svc, 0, kvBootKeys); err != nil {
		svc.Close()
		return nil, err
	}
	s.loaded = kvBootKeys
	for i := 0; i < kvClients; i++ {
		s.clients = append(s.clients, &kvClient{
			rng: rand.New(rand.NewSource(rng.Int63())),
			lo:  i * kvKeys / kvClients,
			hi:  (i + 1) * kvKeys / kvClients,
			lat: make([]float64, 0, kvMaxLat),
		})
	}
	return s, nil
}

// each runs fn once per client, all at the same time, and sums the counts.
func (s *kvSys) each(fn func(c *kvClient) (ops, failed int64)) (ops, failed int64) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *kvClient) {
			defer wg.Done()
			o, f := fn(c)
			mu.Lock()
			ops += o
			failed += f
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return ops, failed
}

func (s *kvSys) msgCounts() (local, wire int64) {
	for i := 0; i < kvNodes; i++ {
		l, w := s.svc.Runtime(i).MsgCounts()
		local += l
		wire += w
	}
	return local, wire
}

func (s *kvSys) window(d time.Duration) (window, error) {
	var w window
	if s.loaded < kvKeys { // the first window of a boot, which is warm-up
		if err := s.st.preload(s.svc, s.loaded, kvKeys); err != nil {
			return w, err
		}
		s.loaded = kvKeys
	}
	l0, w0 := s.msgCounts()
	m := startMeter()
	w.ops, w.failed = s.each(func(c *kvClient) (int64, int64) { return c.run(s.svc, s.st, d) })
	m.stop(&w)
	l1, w1 := s.msgCounts()
	w.local, w.wire = l1-l0, w1-w0
	for _, c := range s.clients {
		w.lat = append(w.lat, c.lat...)
	}
	w.ratio = timerWaitUS() / quantile(w.lat, 0.99)
	return w, nil
}

func (s *kvSys) observed() observation {
	if s.reg == nil {
		return observation{}
	}
	var ob observation
	ob.flushes, ob.flushedMsgs = batchCounters(s.reg)
	if h, ok := s.reg.Lookup("charmgo_admission_mailbox_depth").(*metrics.Histogram); ok {
		ob.mailboxDepthP99 = h.Quantile(0.99)
	}
	ob.shed = s.svc.Gate().Rejected()
	return ob
}

func (s *kvSys) close() (int64, error) {
	// final sweep of every key written, each client reading its own half
	_, failed := s.each(func(c *kvClient) (int64, int64) {
		return 0, s.st.sweep(s.svc, c.lo, max(c.lo, min(c.hi, s.loaded)))
	})
	failed += s.svc.FalsePositives() // a detector declared a live node dead
	s.svc.Close()
	return failed, nil
}
