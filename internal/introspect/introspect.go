// Package introspect is the CCS-style live-introspection layer of the
// charmgo runtime (DESIGN.md §3.6), in the spirit of Charm++'s Converse
// Client-Server and live Projections: while a job is running, each node
// periodically samples its PEs (busy/idle utilization, mailbox depth,
// entry-method and message rates) and its chare collections (top-K hottest
// elements by the same measured load the AtSync load balancer uses), node 0
// aggregates the per-node snapshots over the regular wire path, and the
// debug HTTP endpoint serves the assembled cluster view as JSON
// (/introspect), an on-demand Chrome export of the live trace window
// (/introspect/trace) and a forced load-balancing round (/introspect/lb).
// `charmgo top` renders the JSON as an htop-style terminal view.
//
// The package holds only plain data types and the thread-safe Cluster
// aggregation state; the samplers and wire protocol live in internal/core
// (core/introspect.go), which pushes NodeSnapshots into a Cluster via Put.
package introspect

import (
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"
)

// PESample is one PE's activity during (and up to) a sample window.
type PESample struct {
	PE int `json:"pe"` // global PE id
	// Window deltas: activity during the last sample interval.
	BusyNanos int64   `json:"busyNanos"` // entry-method execution time in the window
	EMs       int64   `json:"ems"`       // entry methods executed in the window
	Recvs     int64   `json:"recvs"`     // messages dequeued in the window
	Util      float64 `json:"util"`      // BusyNanos / window length, clamped to [0,1]
	// Instantaneous state at sample time.
	MailboxDepth int `json:"mailboxDepth"`
	// Cumulative totals since job start.
	TotalEMs   int64 `json:"totalEMs"`
	TotalRecvs int64 `json:"totalRecvs"`
}

// HotElem is one of the top-K hottest elements of a collection, ranked by
// the measured entry-method load the LB database maintains (element.load).
type HotElem struct {
	Index      []int   `json:"index"` // element index within its collection
	PE         int     `json:"pe"`    // hosting PE at sample time
	LoadMillis float64 `json:"loadMillis"`
}

// CollSample is one collection's profile on one node.
type CollSample struct {
	CID   int32     `json:"cid"`
	Type  string    `json:"type"` // chare type name
	Kind  string    `json:"kind"` // single | group | array | sparse
	Elems int       `json:"elems"`
	Hot   []HotElem `json:"hot,omitempty"` // top-K by load, descending
}

// AdmissionSample is a node's admission-control state at sample time:
// cumulative shed/delayed request counts and the quantiles of the mailbox
// depths the gate observed. Present only on nodes that host an admission
// gate (internal/elastic; typically the front-end node of a serving job).
type AdmissionSample struct {
	Rejected   int64   `json:"rejected"` // requests shed above the high watermark
	Delayed    int64   `json:"delayed"`  // requests briefly held above the low watermark
	DepthCount int64   `json:"depthCount"`
	DepthP50   float64 `json:"depthP50"`
	DepthP99   float64 `json:"depthP99"`
}

// NodeSnapshot is one node's introspection sample, shipped to node 0 over
// the wire (gob; exported fields only).
type NodeSnapshot struct {
	Node        int          `json:"node"`
	BasePE      int          `json:"basePE"`
	Seq         int64        `json:"seq"`         // sample round number on the node
	UnixNano    int64        `json:"unixNano"`    // capture time on the node's clock
	WindowNanos int64        `json:"windowNanos"` // measured length of the sample window
	PEs         []PESample   `json:"pes"`
	Colls       []CollSample `json:"colls,omitempty"`
	SendsLocal  int64        `json:"sendsLocal"` // cumulative in-node deliveries
	SendsWire   int64        `json:"sendsWire"`  // cumulative cross-node sends
	// Backstops counts aggregator batches that sat until the backstop timer
	// (cumulative): sends no flush rule saw. Expected to stay 0.
	Backstops  int64    `json:"backstopFlushes"`
	TraceDrops []uint64 `json:"traceDrops,omitempty"` // per local PE ring-buffer losses
	// CommBytes holds this node's rows of the PE×PE wire-byte matrix
	// (len(PEs) × TotalPEs row-major, source rows only), when tracing is on.
	CommBytes []int64 `json:"commBytes,omitempty"`
	TotalPEs  int     `json:"totalPEs"`
	// Admission is set when this node hosts an admission gate.
	Admission *AdmissionSample `json:"admission,omitempty"`
}

// NodeView wraps a NodeSnapshot with node-0-side freshness/liveness.
type NodeView struct {
	NodeSnapshot
	AgeMillis float64 `json:"ageMillis"`       // since node 0 received it
	Stale     bool    `json:"stale,omitempty"` // older than ~3 sample intervals
	Dead      bool    `json:"dead,omitempty"`  // FT detector declared the node dead
	Missing   bool    `json:"missing,omitempty"`
}

// ClusterSnapshot is the job-wide view assembled on node 0 and served at
// /introspect.
type ClusterSnapshot struct {
	Nodes          int           `json:"nodes"`
	TotalPEs       int           `json:"totalPEs"`
	SampleInterval time.Duration `json:"sampleIntervalNanos"`
	UnixNano       int64         `json:"unixNano"` // assembly time
	Node           []NodeView    `json:"node"`
}

// Cluster is the thread-safe aggregation point for introspection samples.
// The runtime configures it at Start (Reset), its samplers push local and
// gathered NodeSnapshots into it (Put), and the HTTP layer reads assembled
// ClusterSnapshots out of it (Snapshot / WriteSnapshotJSON). One Cluster is
// shared between core.Config.Introspect and metrics.Serve.
type Cluster struct {
	mu       sync.Mutex
	nodes    int
	totalPEs int
	interval time.Duration
	latest   []NodeSnapshot
	recvAt   []time.Time

	alive       func(node int) bool // optional FT liveness view
	traceWindow func(w io.Writer, window time.Duration) error
	triggerLB   func() ([]int32, error)
}

// NewCluster creates an empty Cluster; the runtime sizes it via Reset.
func NewCluster() *Cluster { return &Cluster{} }

// Reset (re)initializes the cluster shape. Called by the runtime at Start,
// once the job topology is known; safe to call again on FT restart.
func (c *Cluster) Reset(nodes, totalPEs int, interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes = nodes
	c.totalPEs = totalPEs
	c.interval = interval
	c.latest = make([]NodeSnapshot, nodes)
	c.recvAt = make([]time.Time, nodes)
}

// Put stores a node's latest snapshot. Out-of-range or out-of-order (older
// Seq) snapshots are dropped — reports race the sampler over the wire.
func (c *Cluster) Put(s NodeSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Node < 0 || s.Node >= len(c.latest) {
		return
	}
	if prev := &c.latest[s.Node]; prev.Seq > s.Seq {
		return
	}
	c.latest[s.Node] = s
	c.recvAt[s.Node] = time.Now()
}

// SetLiveness installs the FT failure detector's view of peer liveness, so
// dead nodes are marked instead of merely going stale.
func (c *Cluster) SetLiveness(alive func(node int) bool) {
	c.mu.Lock()
	c.alive = alive
	c.mu.Unlock()
}

// SetTraceWindow installs the on-demand windowed trace exporter
// (/introspect/trace). The runtime wires it to the live tracer at Start.
func (c *Cluster) SetTraceWindow(fn func(w io.Writer, window time.Duration) error) {
	c.mu.Lock()
	c.traceWindow = fn
	c.mu.Unlock()
}

// SetLBTrigger installs the forced-LB-round hook (/introspect/lb). The
// runtime wires it at Start; it returns the CIDs of the collections whose
// roots were asked to run a measurement round.
func (c *Cluster) SetLBTrigger(fn func() ([]int32, error)) {
	c.mu.Lock()
	c.triggerLB = fn
	c.mu.Unlock()
}

// Snapshot assembles the current cluster view. A node whose last sample is
// older than ~3 sample intervals is marked stale; a node the FT detector
// declared dead is marked dead; a node that never reported is missing.
func (c *Cluster) Snapshot() ClusterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := ClusterSnapshot{
		Nodes:          c.nodes,
		TotalPEs:       c.totalPEs,
		SampleInterval: c.interval,
		UnixNano:       now.UnixNano(),
		Node:           make([]NodeView, len(c.latest)),
	}
	staleAfter := 3 * c.interval
	if staleAfter < time.Second {
		staleAfter = time.Second
	}
	for i := range c.latest {
		v := NodeView{NodeSnapshot: c.latest[i]}
		if c.recvAt[i].IsZero() {
			v.Missing = true
			v.NodeSnapshot.Node = i
		} else {
			age := now.Sub(c.recvAt[i])
			v.AgeMillis = float64(age) / float64(time.Millisecond)
			v.Stale = age > staleAfter
		}
		if c.alive != nil && !c.alive(i) {
			v.Dead = true
		}
		out.Node[i] = v
	}
	return out
}

// WriteSnapshotJSON writes the assembled cluster snapshot as JSON
// (the /introspect response body).
func (c *Cluster) WriteSnapshotJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(c.Snapshot())
}

// ErrNotWired is returned for hooks the runtime has not installed (e.g.
// /introspect/trace without a tracer attached).
var ErrNotWired = errors.New("introspect: not wired on this node")

// WriteTraceWindow exports the live trace's last `window` as Chrome
// trace-event JSON through the installed hook.
func (c *Cluster) WriteTraceWindow(w io.Writer, window time.Duration) error {
	c.mu.Lock()
	fn := c.traceWindow
	c.mu.Unlock()
	if fn == nil {
		return ErrNotWired
	}
	return fn(w, window)
}

// TriggerLB asks the runtime to run a forced LB round and writes the JSON
// result (the triggered collection ids) to w.
func (c *Cluster) TriggerLB(w io.Writer) error {
	c.mu.Lock()
	fn := c.triggerLB
	c.mu.Unlock()
	if fn == nil {
		return ErrNotWired
	}
	cids, err := fn()
	if err != nil {
		return err
	}
	if cids == nil {
		cids = []int32{}
	}
	return json.NewEncoder(w).Encode(struct {
		Triggered []int32 `json:"triggered"`
	}{cids})
}
