package elastic

import (
	"errors"
	"time"

	"charmgo/internal/metrics"
)

// ErrOverloaded is returned by Gate.Admit when the backlog is above the
// high watermark: the request is shed at the front end instead of being
// queued into a runtime that cannot keep up.
var ErrOverloaded = errors.New("elastic: overloaded, request shed")

// GateOptions configures admission control. Zero values select defaults.
type GateOptions struct {
	// HighWater sheds requests when the backlog is at or above it
	// (default 4096).
	HighWater int
	// LowWater delays requests when the backlog is at or above it
	// (default HighWater/2).
	LowWater int
	// Delay is the pause applied to each delayed request (default 1ms) —
	// open-loop backpressure: arrival smoothing, not queueing.
	Delay time.Duration
	// Depth reports the current backlog (required); typically
	// Runtime.MailboxDepth plus the front end's in-flight count.
	Depth func() int
}

// Gate is mailbox-depth watermark admission control for a serving front
// end. With a nil metrics registry the fast path is two loads and two
// compares — no allocation, no instrument updates.
type Gate struct {
	high  int
	low   int
	delay time.Duration
	depth func() int

	rejected *metrics.Counter   // nil when metrics are off
	delayed  *metrics.Counter   // nil when metrics are off
	depthH   *metrics.Histogram // nil when metrics are off
}

// NewGate creates a gate. reg may be nil (metrics off: the admission path
// stays allocation-free and skips all instrument updates).
func NewGate(reg *metrics.Registry, opts GateOptions) *Gate {
	if opts.HighWater <= 0 {
		opts.HighWater = 4096
	}
	if opts.LowWater <= 0 {
		opts.LowWater = opts.HighWater / 2
	}
	if opts.Delay <= 0 {
		opts.Delay = time.Millisecond
	}
	if opts.Depth == nil {
		panic("elastic: GateOptions.Depth is required")
	}
	g := &Gate{high: opts.HighWater, low: opts.LowWater, delay: opts.Delay, depth: opts.Depth}
	if reg != nil {
		g.rejected = reg.Counter("charmgo_admission_rejected_total",
			"requests shed at the front end above the high watermark")
		g.delayed = reg.Counter("charmgo_admission_delayed_total",
			"requests delayed at the front end above the low watermark")
		g.depthH = reg.Histogram("charmgo_admission_mailbox_depth",
			"backlog depth observed at admission time")
	}
	return g
}

// Admit applies the watermark policy to one request: above the high
// watermark it is shed (ErrOverloaded); above the low watermark it is
// delayed once and re-examined; otherwise it passes. The caller sends the
// request only on nil.
func (g *Gate) Admit() error {
	d := g.depth()
	if h := g.depthH; h != nil {
		h.Observe(int64(d))
	}
	if d >= g.high {
		if c := g.rejected; c != nil {
			c.Inc()
		}
		return ErrOverloaded
	}
	if d >= g.low {
		if c := g.delayed; c != nil {
			c.Inc()
		}
		time.Sleep(g.delay)
		if g.depth() >= g.high {
			if c := g.rejected; c != nil {
				c.Inc()
			}
			return ErrOverloaded
		}
	}
	return nil
}

// Rejected returns the cumulative shed count (0 when metrics are off).
func (g *Gate) Rejected() int64 {
	if g.rejected == nil {
		return 0
	}
	return g.rejected.Value()
}
