package ft

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/metrics"
	"charmgo/internal/trace"
	"charmgo/internal/transport"
)

// The failure detector is a transport.Transport wrapper that piggybacks on
// the regular frame path: any inbound frame from a peer refreshes that
// peer's liveness, and a periodic heartbeat frame keeps otherwise-idle
// links warm. A peer silent past the suspicion timeout is declared dead
// once, gossiped to the remaining peers (so detection converges in one
// message instead of another timeout), and reported through OnDeath.
//
// Detector control frames reuse the wire-v2 destination prefix: core emits
// dest >= 0 (unicast), -1 (broadcast), -2 (batch), -5 (broadcast fragment)
// and <= -6 (tree broadcast), so the detector claims -3 (heartbeat) and -4
// (death notice) and filters them out before the runtime's handler sees
// them.

const (
	hbDest    int32 = -3 // [4B LE -3]; with a trailing 'G' byte: goodbye
	deathDest int32 = -4 // [4B LE -4][4B LE dead node]

	// goodbyeMark turns a heartbeat frame into a goodbye: a planned
	// departure announcement. Core claims every other negative dest word
	// (-1/-2/-5 and the whole <= -6 tree range), so the goodbye rides the
	// heartbeat dest with a discriminator byte instead of its own word.
	goodbyeMark byte = 'G'
)

// putDest writes a (possibly negative) wire destination word.
func putDest(b []byte, d int32) {
	binary.LittleEndian.PutUint32(b, uint32(d))
}

// DetectorOptions configures a Detector. Zero values select defaults.
type DetectorOptions struct {
	// Interval between heartbeats (default 50ms).
	Interval time.Duration
	// Timeout of silence after which a peer is declared dead (default
	// 10×Interval). Keep generous under the race detector.
	Timeout time.Duration
	// OnDeath is invoked exactly once per dead peer, from a detector
	// goroutine. Required for the detector to be useful.
	OnDeath func(peer int)
	// Trace records EvHeartbeatMiss / EvNodeDeath events (may be nil).
	Trace *trace.Tracer
	// HeartbeatsSent / Misses / Deaths are optional pre-registered counters
	// (the caller registers them once even when transports are rebuilt
	// every recovery round).
	HeartbeatsSent *metrics.Counter
	Misses         *metrics.Counter
	Deaths         *metrics.Counter
}

// Detector wraps a Transport with heartbeat failure detection.
type Detector struct {
	inner transport.Transport
	bs    transport.BufSender // inner's zero-copy path, when available

	self, n  int
	interval time.Duration
	timeout  time.Duration
	onDeath  func(int)

	tr     *trace.Tracer
	mSent  *metrics.Counter
	mMiss  *metrics.Counter
	mDeath *metrics.Counter

	start     time.Time
	lastHeard []atomic.Int64 // ns since start, per peer
	dead      []atomic.Bool
	departed  []atomic.Bool // said goodbye: silence is planned, not a crash
	watched   []atomic.Bool // monitored set; unwatched peers are never suspected

	h       atomic.Pointer[transport.Handler]
	started sync.Once
	closed  chan struct{}
	closeFn sync.Once
	wg      sync.WaitGroup
}

// NewDetector wraps inner. The heartbeat loop starts when the runtime
// installs its handler (SetHandler), so a job that never starts never
// suspects anyone.
func NewDetector(inner transport.Transport, opts DetectorOptions) *Detector {
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * opts.Interval
	}
	d := &Detector{
		inner:    inner,
		self:     inner.NodeID(),
		n:        inner.NumNodes(),
		interval: opts.Interval,
		timeout:  opts.Timeout,
		onDeath:  opts.OnDeath,
		tr:       opts.Trace,
		mSent:    opts.HeartbeatsSent,
		mMiss:    opts.Misses,
		mDeath:   opts.Deaths,
		start:    time.Now(),
		closed:   make(chan struct{}),
	}
	d.lastHeard = make([]atomic.Int64, d.n)
	d.dead = make([]atomic.Bool, d.n)
	d.departed = make([]atomic.Bool, d.n)
	d.watched = make([]atomic.Bool, d.n)
	for p := range d.watched {
		d.watched[p].Store(true)
	}
	if bs, ok := inner.(transport.BufSender); ok {
		d.bs = bs
	}
	return d
}

// NodeID implements transport.Transport.
func (d *Detector) NodeID() int { return d.self }

// NumNodes implements transport.Transport.
func (d *Detector) NumNodes() int { return d.n }

// PeerAlive reports whether a peer has not been declared dead. The
// introspection layer (core/introspect.go) probes the configured transport
// for this method to mark dead nodes in the served cluster snapshot.
func (d *Detector) PeerAlive(node int) bool {
	if node < 0 || node >= d.n {
		return false
	}
	return !d.dead[node].Load()
}

// Watch (re-)adds a peer to the monitored set: it is heartbeated, its
// silence is timed, and it may be declared dead again. The liveness clock
// is refreshed so the peer gets a full timeout of grace, and any previous
// departed mark is cleared (a slot can leave and later rejoin).
func (d *Detector) Watch(node int) {
	if node < 0 || node >= d.n || node == d.self {
		return
	}
	d.lastHeard[node].Store(int64(time.Since(d.start)))
	d.departed[node].Store(false)
	d.watched[node].Store(true)
}

// Unwatch removes a peer from the monitored set without marking it dead:
// no heartbeats are sent to it and its silence is ignored. Used for
// elastic membership slots that are provisioned but not (yet) active.
func (d *Detector) Unwatch(node int) {
	if node < 0 || node >= d.n {
		return
	}
	d.watched[node].Store(false)
}

// Goodbye announces this node's planned departure to every live peer. Call
// it after the runtime has drained (post-settle), immediately before
// closing the transport: peers stop monitoring this node instead of
// declaring it dead when the link goes quiet.
func (d *Detector) Goodbye() {
	var bye [5]byte
	putDest(bye[:4], hbDest)
	bye[4] = goodbyeMark
	for p := 0; p < d.n; p++ {
		if p != d.self && !d.dead[p].Load() {
			_ = d.inner.Send(p, bye[:])
		}
	}
}

// Send implements transport.Transport. Sends to peers already declared
// dead are silently dropped: the runtime above has been told and failures
// must not cascade into panics while it tears down.
func (d *Detector) Send(node int, frame []byte) error {
	if node >= 0 && node < d.n && d.dead[node].Load() {
		return nil
	}
	return d.inner.Send(node, frame)
}

// SendBuf implements transport.BufSender (ownership of buf transfers here,
// so dropped sends must recycle it).
func (d *Detector) SendBuf(node int, buf []byte) error {
	if node >= 0 && node < d.n && d.dead[node].Load() {
		transport.PutBuf(buf)
		return nil
	}
	if d.bs != nil {
		return d.bs.SendBuf(node, buf)
	}
	err := d.inner.Send(node, buf[transport.PrefixLen:])
	transport.PutBuf(buf)
	return err
}

// SetHandler implements transport.Transport and arms the detector: the
// inner transport starts delivering into the filter and the heartbeat
// loop starts ticking.
func (d *Detector) SetHandler(h transport.Handler) {
	d.h.Store(&h)
	d.started.Do(func() {
		now := int64(time.Since(d.start))
		for p := range d.lastHeard {
			d.lastHeard[p].Store(now) // grace: nobody is dead at arm time
		}
		d.inner.SetHandler(d.onFrame)
		d.wg.Add(1)
		go d.loop()
	})
}

// Close stops the heartbeat loop and closes the wrapped transport.
func (d *Detector) Close() error {
	var err error
	d.closeFn.Do(func() {
		close(d.closed)
		d.wg.Wait()
		err = d.inner.Close()
	})
	return err
}

// onFrame filters detector control frames and refreshes peer liveness on
// everything else before passing it up.
func (d *Detector) onFrame(from int, frame []byte) {
	if from >= 0 && from < d.n {
		d.lastHeard[from].Store(int64(time.Since(d.start)))
	}
	if len(frame) >= 4 {
		switch int32(binary.LittleEndian.Uint32(frame)) {
		case hbDest:
			if len(frame) >= 5 && frame[4] == goodbyeMark &&
				from >= 0 && from < d.n {
				d.departed[from].Store(true)
				d.watched[from].Store(false)
			}
			return
		case deathDest:
			if len(frame) >= 8 {
				d.declareDead(int(int32(binary.LittleEndian.Uint32(frame[4:]))))
			}
			return
		}
	}
	if hp := d.h.Load(); hp != nil {
		(*hp)(from, frame)
	}
}

// loop heartbeats the live peers and checks their silence.
func (d *Detector) loop() {
	defer d.wg.Done()
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	var hb [4]byte
	putDest(hb[:], hbDest)
	for {
		select {
		case <-d.closed:
			return
		case <-tick.C:
		}
		now := int64(time.Since(d.start))
		for p := 0; p < d.n; p++ {
			if p == d.self || d.dead[p].Load() || d.departed[p].Load() {
				continue
			}
			// Heartbeat first so an idle peer has something to refresh us
			// with on the next tick. Errors are the detector's own signal:
			// a dead link shows up as silence. Unwatched peers still get
			// heartbeats — a provisioned-but-inactive slot watches the
			// active cluster, and must keep hearing from it or its own
			// detector would suspect everyone before it even joins.
			_ = d.inner.Send(p, hb[:])
			if c := d.mSent; c != nil {
				c.Inc()
			}
			if !d.watched[p].Load() {
				continue // kept warm, never suspected
			}
			silence := time.Duration(now - d.lastHeard[p].Load())
			switch {
			case silence > d.timeout:
				d.declareDead(p)
			case silence > 2*d.interval:
				if c := d.mMiss; c != nil {
					c.Inc()
				}
				if tr := d.tr; tr != nil {
					tr.HeartbeatMiss(p, tr.Since())
				}
			}
		}
	}
}

// declareDead marks a peer dead exactly once: record it, gossip a death
// notice to the remaining peers, and invoke the callback.
func (d *Detector) declareDead(peer int) {
	if peer < 0 || peer >= d.n || peer == d.self {
		return
	}
	// A peer that said goodbye (or was unwatched by the membership layer)
	// is silent on purpose: a local timeout cannot fire for it (the loop
	// skips it), and a gossiped death notice about it is stale.
	if d.departed[peer].Load() || !d.watched[peer].Load() {
		return
	}
	if d.dead[peer].Swap(true) {
		return
	}
	if c := d.mDeath; c != nil {
		c.Inc()
	}
	if tr := d.tr; tr != nil {
		tr.NodeDeath(peer, tr.Since())
	}
	var notice [8]byte
	putDest(notice[:4], deathDest)
	binary.LittleEndian.PutUint32(notice[4:], uint32(peer))
	for q := 0; q < d.n; q++ {
		if q != d.self && q != peer && !d.dead[q].Load() {
			_ = d.inner.Send(q, notice[:])
		}
	}
	if f := d.onDeath; f != nil {
		f(peer)
	}
}
