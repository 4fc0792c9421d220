package ft

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"charmgo/internal/transport"
)

// Chaos is a fault-injection transport.Transport wrapper. It sits below
// the failure detector (factory transport → Chaos → Detector → runtime),
// so injected faults are exactly what the detector has to diagnose:
//
//   - SetDropRate drops a fraction of detector control frames (heartbeats
//     and death notices). Application frames are never dropped: the runtime
//     is built on a reliable FIFO transport, and dropping its frames would
//     wedge the job rather than exercise failure detection.
//   - A crash black-holes everything, simulating this process dying without
//     closing sockets — the worst case for a timeout detector. The recovery
//     tests crash a node at once or arm a fuse that crashes it after n more
//     application frames, in the middle of its live message stream.
//
// Faults are injected deterministically from the seed so chaos runs are
// reproducible.
type Chaos struct {
	inner transport.Transport
	bs    transport.BufSender

	mu        sync.Mutex
	rng       *rand.Rand
	drop      float64
	fuseArmed bool
	fuse      int64
	onCrash   func()

	crashed atomic.Bool

	h atomic.Pointer[transport.Handler]
}

// Wrap wraps a transport in a chaos layer with a deterministic RNG seed.
func Wrap(inner transport.Transport, seed int64) *Chaos {
	c := &Chaos{inner: inner, rng: rand.New(rand.NewSource(seed))}
	if bs, ok := inner.(transport.BufSender); ok {
		c.bs = bs
	}
	return c
}

// SetDropRate drops this fraction of detector control frames (0..1).
func (c *Chaos) SetDropRate(p float64) {
	c.mu.Lock()
	c.drop = p
	c.mu.Unlock()
}

// NodeID implements transport.Transport.
func (c *Chaos) NodeID() int { return c.inner.NodeID() }

// NumNodes implements transport.Transport.
func (c *Chaos) NumNodes() int { return c.inner.NumNodes() }

// ftControlFrame reports whether the payload is a detector control frame
// (heartbeat or death notice); only those are subject to drops.
func ftControlFrame(frame []byte) bool {
	if len(frame) < 4 {
		return false
	}
	d := int32(frame[0]) | int32(frame[1])<<8 | int32(frame[2])<<16 | int32(frame[3])<<24
	return d == hbDest || d == deathDest
}

// drops reports whether the frame is lost: everything once crashed (the
// fuse may crash the layer on this frame), else the configured fraction of
// detector control frames.
func (c *Chaos) drops(frame []byte) bool {
	if c.crashed.Load() {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fuseArmed && !ftControlFrame(frame) {
		c.fuse--
		if c.fuse < 0 {
			c.fuseArmed = false
			c.crashed.Store(true)
			if fn := c.onCrash; fn != nil {
				go fn()
			}
			return true
		}
	}
	return c.drop > 0 && ftControlFrame(frame) && c.rng.Float64() < c.drop
}

// Send implements transport.Transport.
func (c *Chaos) Send(node int, frame []byte) error {
	if c.drops(frame) {
		return nil
	}
	return c.inner.Send(node, frame)
}

// SendBuf implements transport.BufSender (takes ownership of buf).
func (c *Chaos) SendBuf(node int, buf []byte) error {
	if c.drops(buf[transport.PrefixLen:]) {
		transport.PutBuf(buf)
		return nil
	}
	if c.bs != nil {
		return c.bs.SendBuf(node, buf)
	}
	err := c.inner.Send(node, buf[transport.PrefixLen:])
	transport.PutBuf(buf)
	return err
}

// SetHandler implements transport.Transport, filtering inbound traffic
// through the fault state.
func (c *Chaos) SetHandler(h transport.Handler) {
	c.h.Store(&h)
	c.inner.SetHandler(func(from int, frame []byte) {
		if c.crashed.Load() {
			return
		}
		if hp := c.h.Load(); hp != nil {
			(*hp)(from, frame)
		}
	})
}

// Close closes the wrapped transport.
func (c *Chaos) Close() error { return c.inner.Close() }
