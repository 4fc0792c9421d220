// Package metrics is a lock-free counters/gauges registry for the charmgo
// runtime. Instruments are plain atomics — updating one is a single
// atomic add with no map lookups or locks, cheap enough for the message
// hot path (the runtime additionally guards every update behind a single
// nil check so a disabled registry costs one predicted branch).
//
// The registry itself takes a mutex only at registration time; reads for
// exposition (WriteText) are lock-free snapshots. Exposition is a
// Prometheus-style text format served by the debug endpoint in http.go.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be >= 0 for meaningful rates; not enforced).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of power-of-two buckets in a Histogram:
// bucket i counts observations v with 2^(i-1) <= v < 2^i (bucket 0 is
// v <= 0 or v == 1's lower neighbours, see bucketOf). 40 buckets cover
// values up to ~5e11, plenty for byte sizes and microsecond latencies.
const HistBuckets = 40

// Histogram counts observations in power-of-two buckets. Lock-free.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // 2^(b-1) <= v < 2^b
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns a snapshot of the bucket counts.
func (h *Histogram) Buckets() [HistBuckets]int64 {
	var out [HistBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the p-quantile (p in [0,1]) of the observed values by
// linear interpolation inside the power-of-2 bucket containing the target
// rank: bucket i (i >= 1) spans [2^(i-1), 2^i). The estimate is exact at
// bucket boundaries and within a factor of 2 anywhere else — plenty for the
// byte-size and latency distributions these histograms hold. Returns 0 when
// nothing was observed.
func (h *Histogram) Quantile(p float64) float64 {
	bk := h.Buckets()
	var total int64
	for _, c := range bk {
		total += c
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	var cum int64
	for i, c := range bk {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == 0 {
				return 0 // bucket 0 holds v <= 0
			}
			lo := float64(int64(1) << uint(i-1))
			hi := float64(int64(1) << uint(i))
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return float64(int64(1) << uint(HistBuckets-1))
}

// instrument is the registry's view of one named metric.
type instrument struct {
	name string
	help string
	read func(w io.Writer, name string)
}

// Registry holds named instruments. Registration takes a mutex; using a
// registered instrument is lock-free. Names follow Prometheus conventions
// and may embed a label set, e.g. `charmgo_mailbox_depth{pe="3"}`.
type Registry struct {
	mu   sync.Mutex
	ins  []instrument
	byNm map[string]any // name -> *Counter/*Gauge/*Histogram/*funcGauge
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNm: make(map[string]any)}
}

// register installs read under name, or returns the existing instrument of
// the same name (idempotent by name; panics on a type collision so wiring
// bugs fail loudly in tests).
func (r *Registry) register(name, help string, v any, read func(io.Writer, string)) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byNm[name]; ok {
		if fmt.Sprintf("%T", old) != fmt.Sprintf("%T", v) {
			panic(fmt.Sprintf("metrics: %q re-registered as %T (was %T)", name, v, old))
		}
		return old
	}
	r.byNm[name] = v
	r.ins = append(r.ins, instrument{name: name, help: help, read: read})
	return v
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	got := r.register(name, help, c, func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
	cc, ok := got.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q is not a counter", name))
	}
	if cc != c {
		return cc
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	got := r.register(name, help, g, func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Value())
	})
	gg, ok := got.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q is not a gauge", name))
	}
	return gg
}

// GaugeFunc registers a gauge whose value is computed at scrape time by fn
// (e.g. current mailbox depth, or a count its owner keeps anyway).
// Re-registering the same name replaces the function, so a runtime rebuilt
// on the same registry (a fault-tolerance recovery) reports its own state,
// not its predecessor's.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	g := &funcGauge{}
	g.fn.Store(&fn)
	got := r.register(name, help, g, func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Value())
	}).(*funcGauge)
	got.fn.Store(&fn)
}

// funcGauge is a GaugeFunc's registration.
type funcGauge struct{ fn atomic.Pointer[func() int64] }

// Value calls the gauge's current function.
func (g *funcGauge) Value() int64 { return (*g.fn.Load())() }

// Histogram returns the histogram registered under name, creating it if
// needed. Exposed as cumulative `_bucket{le="..."}` lines plus `_sum` and
// `_count`, Prometheus-style.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	got := r.register(name, help, h, func(w io.Writer, n string) {
		bk := h.Buckets()
		var cum int64
		for i, c := range bk {
			if c == 0 {
				continue
			}
			cum += c
			// upper bound of bucket i is 2^i - 1... use 1<<i as "le"
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, int64(1)<<uint(i), cum)
		}
		fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
		if h.Count() > 0 {
			fmt.Fprintf(w, "%s %g\n", suffixName(n, "_p50"), h.Quantile(0.5))
			fmt.Fprintf(w, "%s %g\n", suffixName(n, "_p99"), h.Quantile(0.99))
		}
	})
	hh, ok := got.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q is not a histogram", name))
	}
	return hh
}

// Lookup returns the instrument registered under name (*Counter, *Gauge,
// *Histogram, or for a GaugeFunc a value with the same Value() int64 method)
// without creating one — nil when nothing is registered. For observers that
// surface a metric only if some other component happens to maintain it.
func (r *Registry) Lookup(name string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byNm[name]
}

// WriteText writes every instrument in a Prometheus-style text exposition,
// sorted by name for stable output.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	ins := append([]instrument(nil), r.ins...)
	r.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].name < ins[j].name })
	for _, in := range ins {
		if in.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", baseName(in.name), in.help)
		}
		in.read(w, in.name)
	}
}

// suffixName appends a suffix to a metric name, keeping any label set in
// place: suffixName(`foo{pe="1"}`, "_p50") is `foo_p50{pe="1"}`.
func suffixName(name, suffix string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i] + suffix + name[i:]
		}
	}
	return name + suffix
}

// baseName strips a trailing {label="..."} set from a metric name.
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}
