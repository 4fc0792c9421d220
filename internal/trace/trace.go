// Package trace is the charmgo performance-tracing facility, in the spirit
// of Charm++'s Projections: it records the full lifecycle of runtime
// activity per PE — entry-method executions, message sends and dequeues
// (queue-wait latency), PE idle spans, reductions, futures, quiescence,
// migrations, load-balancer decisions, aggregator flushes and transport
// frames — and produces utilization summaries, a PE×PE communication
// matrix, and Chrome trace-event timelines (chrome.go) loadable in
// Perfetto.
//
// Attach a Tracer through core.Config.Trace; the runtime records events
// only when one is attached (zero overhead otherwise). Per-shard ring
// buffers bound memory: once a PE's buffer is full the oldest events are
// overwritten and Dropped counts the loss, so long runs cannot OOM the
// tracer.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// EvEM is one entry-method execution (Dur covers the run time).
	EvEM Kind = iota
	// EvSend is one message send (Dest is the destination PE when known).
	EvSend
	// EvRecv is one message dequeue at its destination PE; Dur is the time
	// the message waited in the mailbox (queue-wait latency).
	EvRecv
	// EvIdle is a span during which the PE scheduler had no work.
	EvIdle
	// EvReduction is one completed reduction at its root PE.
	EvReduction
	// EvFuture is one future fulfilled on its owner PE.
	EvFuture
	// EvQD is one quiescence detection at the coordinator.
	EvQD
	// EvMigrateOut is one element emigrating (Dest is the destination PE).
	EvMigrateOut
	// EvMigrateIn is one element arriving after migration.
	EvMigrateIn
	// EvLB is one load-balancer decision at a collection root (N = number
	// of migration orders issued).
	EvLB
	// EvFlush is one aggregator batch transmission (Dest = destination
	// node, Bytes = batch frame size, N = messages coalesced, Method = which
	// rule transmitted it: threshold, idle, sender or backstop).
	EvFlush
	// EvFrameOut is one outbound transport frame (Dest = destination node).
	EvFrameOut
	// EvFrameIn is one inbound transport frame (Dest = source node).
	EvFrameIn
	// EvHeartbeatMiss is one missed-heartbeat suspicion tick raised by the
	// failure detector (Dest = suspected peer node).
	EvHeartbeatMiss
	// EvNodeDeath is the failure detector declaring a peer node dead
	// (Dest = dead node).
	EvNodeDeath
	// EvRecovery is one completed fault-tolerance recovery (N = restored
	// checkpoint epoch, Dur = detection-to-restore latency when known).
	EvRecovery
	// EvTreeHop is one collective spanning-tree hop: a broadcast frame sent
	// or relayed to a child node, or a merged reduction partial forwarded to
	// a parent node (Dest = peer node; Bytes = frame size for broadcasts,
	// N = folded contributions for reduction forwards).
	EvTreeHop
	// EvFrag is one broadcast fragment sent or relayed down the tree
	// (Dest = child node, Bytes = chunk size, N = fragment index).
	EvFrag

	numKinds
)

var kindNames = [numKinds]string{
	"em", "send", "recv", "idle", "reduction", "future", "qd",
	"migrate-out", "migrate-in", "lb", "flush", "frame-out", "frame-in",
	"hb-miss", "node-death", "recovery", "tree-hop", "frag",
}

// String returns a short stable name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence. PE is a node-local PE index (see
// Report.BasePE for the global offset); Dest is a global PE or node id
// depending on Kind.
type Event struct {
	PE     int           `json:"pe"`
	Kind   Kind          `json:"kind"`
	At     time.Duration `json:"at"` // since tracer creation
	Dur    time.Duration `json:"dur,omitempty"`
	Chare  string        `json:"chare,omitempty"`
	Method string        `json:"method,omitempty"`
	Bytes  int           `json:"bytes,omitempty"` // wire size; 0 for in-node
	Dest   int           `json:"dest,omitempty"`  // destination PE/node (kind-specific)
	N      int           `json:"n,omitempty"`     // kind-specific count (LB moves, batch msgs)
}

// DefaultEventCap is the per-shard ring-buffer capacity used by New.
const DefaultEventCap = 1 << 16

// Tracer collects events. Safe for concurrent use; per-PE buffers keep
// contention off the hot path.
type Tracer struct {
	start   time.Time
	cap     int
	shard   []shard
	extra   shard // events with unknown PE
	dropped atomic.Uint64

	// communication matrices, allocated by SetTopology (totalPEs×totalPEs,
	// row-major src×dst, atomically updated).
	totalPEs  int
	basePE    int
	commBytes []int64
	commMsgs  []int64
}

// shard is one PE's event ring. Until the ring reaches cap events it grows
// by appending; afterwards the oldest event is overwritten (next is the
// overwrite cursor) and both the shard's and the tracer-wide dropped
// counters increment.
type shard struct {
	mu      sync.Mutex
	ev      []Event
	next    int
	full    bool
	dropped atomic.Uint64
}

// New creates a tracer for numPEs local PEs with the default event cap.
func New(numPEs int) *Tracer { return NewWithCap(numPEs, DefaultEventCap) }

// NewWithCap creates a tracer whose per-PE ring buffers hold at most cap
// events each (cap <= 0 selects DefaultEventCap).
func NewWithCap(numPEs, cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultEventCap
	}
	return &Tracer{start: time.Now(), cap: cap, shard: make([]shard, numPEs)}
}

// SetTopology tells the tracer the job's global shape so it can account the
// PE×PE communication matrix. Called by the runtime at Start; without it the
// matrix stays nil and Comm is a no-op.
func (t *Tracer) SetTopology(totalPEs, basePE int) {
	if totalPEs <= 0 {
		return
	}
	t.totalPEs = totalPEs
	t.basePE = basePE
	t.commBytes = make([]int64, totalPEs*totalPEs)
	t.commMsgs = make([]int64, totalPEs*totalPEs)
}

// Dropped returns the number of events lost to ring-buffer overwrites.
func (t *Tracer) Dropped() uint64 { return t.dropped.Load() }

// DroppedByPE returns one local PE's ring-buffer losses (0 for out-of-range
// PEs). Metrics exposes these as charmgo_trace_dropped_total{pe=...}.
func (t *Tracer) DroppedByPE(pe int) uint64 {
	if pe < 0 || pe >= len(t.shard) {
		return 0
	}
	return t.shard[pe].dropped.Load()
}

func (t *Tracer) bucket(pe int) *shard {
	if pe >= 0 && pe < len(t.shard) {
		return &t.shard[pe]
	}
	return &t.extra
}

// record appends e to the PE's ring, overwriting the oldest event when full.
func (t *Tracer) record(pe int, e Event) {
	b := t.bucket(pe)
	b.mu.Lock()
	if len(b.ev) < t.cap {
		b.ev = append(b.ev, e)
	} else {
		b.ev[b.next] = e
		b.next++
		if b.next == len(b.ev) {
			b.next = 0
		}
		b.full = true
		b.dropped.Add(1)
		t.dropped.Add(1)
	}
	b.mu.Unlock()
}

// Since returns the tracer-relative timestamp for now.
func (t *Tracer) Since() time.Duration { return time.Since(t.start) }

// Epoch returns the instant event times are measured from, for a recorder
// that keeps its own clock and converts instead of calling Since per event.
func (t *Tracer) Epoch() time.Time { return t.start }

// EM records one entry-method execution.
func (t *Tracer) EM(pe int, chare, method string, at, dur time.Duration) {
	t.record(pe, Event{PE: pe, Kind: EvEM, At: at, Dur: dur, Chare: chare, Method: method})
}

// Send records one message send (bytes 0 when the message stayed in-node by
// reference).
func (t *Tracer) Send(pe int, method string, at time.Duration, bytes int) {
	t.record(pe, Event{PE: pe, Kind: EvSend, At: at, Method: method, Bytes: bytes})
}

// SendTo is Send with the destination PE recorded.
func (t *Tracer) SendTo(pe, dest int, method string, at time.Duration, bytes int) {
	t.record(pe, Event{PE: pe, Kind: EvSend, At: at, Method: method, Bytes: bytes, Dest: dest})
}

// Recv records one message dequeue; wait is the mailbox queue-wait latency.
func (t *Tracer) Recv(pe int, method string, at, wait time.Duration) {
	t.record(pe, Event{PE: pe, Kind: EvRecv, At: at, Dur: wait, Method: method})
}

// Idle records a span during which the PE had no work.
func (t *Tracer) Idle(pe int, at, dur time.Duration) {
	t.record(pe, Event{PE: pe, Kind: EvIdle, At: at, Dur: dur})
}

// Reduction records one completed reduction at its root PE.
func (t *Tracer) Reduction(pe int, at time.Duration, contributions int) {
	t.record(pe, Event{PE: pe, Kind: EvReduction, At: at, N: contributions})
}

// FutureSet records one future completing on its owner PE.
func (t *Tracer) FutureSet(pe int, at time.Duration) {
	t.record(pe, Event{PE: pe, Kind: EvFuture, At: at})
}

// QD records one quiescence detection at the coordinator PE.
func (t *Tracer) QD(pe int, at time.Duration) {
	t.record(pe, Event{PE: pe, Kind: EvQD, At: at})
}

// MigrateOut records one element leaving this PE for dest (a global PE).
func (t *Tracer) MigrateOut(pe, dest int, chare string, at time.Duration) {
	t.record(pe, Event{PE: pe, Kind: EvMigrateOut, At: at, Chare: chare, Dest: dest})
}

// MigrateIn records one element arriving on this PE.
func (t *Tracer) MigrateIn(pe int, chare string, at time.Duration) {
	t.record(pe, Event{PE: pe, Kind: EvMigrateIn, At: at, Chare: chare})
}

// LB records one load-balancer decision issuing moves migration orders.
func (t *Tracer) LB(pe int, at time.Duration, moves int) {
	t.record(pe, Event{PE: pe, Kind: EvLB, At: at, N: moves})
}

// Flush records one aggregator batch transmission to a node; by names the
// rule that transmitted it (threshold, idle, sender or backstop).
func (t *Tracer) Flush(node int, at time.Duration, bytes, msgs int, by string) {
	t.record(-1, Event{PE: -1, Kind: EvFlush, At: at, Dest: node, Bytes: bytes, N: msgs, Method: by})
}

// Frame records one transport frame crossing the node boundary; out selects
// the direction, node is the peer.
func (t *Tracer) Frame(out bool, node int, at time.Duration, bytes int) {
	k := EvFrameIn
	if out {
		k = EvFrameOut
	}
	t.record(-1, Event{PE: -1, Kind: k, At: at, Dest: node, Bytes: bytes})
}

// HeartbeatMiss records a missed-heartbeat suspicion for a peer node raised
// by the failure detector (node-level, like Frame).
func (t *Tracer) HeartbeatMiss(node int, at time.Duration) {
	t.record(-1, Event{PE: -1, Kind: EvHeartbeatMiss, At: at, Dest: node})
}

// NodeDeath records the failure detector declaring a peer node dead.
func (t *Tracer) NodeDeath(node int, at time.Duration) {
	t.record(-1, Event{PE: -1, Kind: EvNodeDeath, At: at, Dest: node})
}

// Recovery records one completed fault-tolerance recovery: the checkpoint
// epoch that was restored and the detection-to-restore latency (0 when the
// recorder cannot know it, e.g. the runtime-internal restore path).
func (t *Tracer) Recovery(epoch int, at, dur time.Duration) {
	t.record(-1, Event{PE: -1, Kind: EvRecovery, At: at, Dur: dur, N: epoch})
}

// TreeHop records one collective spanning-tree hop: a broadcast frame sent
// or relayed to a child node (n = frame bytes), or a merged reduction
// partial forwarded to a parent node (n = folded contribution count).
func (t *Tracer) TreeHop(node int, at time.Duration, n int) {
	t.record(-1, Event{PE: -1, Kind: EvTreeHop, At: at, Dest: node, N: n})
}

// Frag records one broadcast fragment sent or relayed to a child node.
func (t *Tracer) Frag(node int, at time.Duration, bytes, idx int) {
	t.record(-1, Event{PE: -1, Kind: EvFrag, At: at, Dest: node, Bytes: bytes, N: idx})
}

// Comm accounts bytes on the wire from global PE src to global PE dst in the
// communication matrix. No-op until SetTopology; negative/out-of-range PEs
// (e.g. runtime-internal senders) are ignored.
func (t *Tracer) Comm(src, dst, bytes int) {
	n := t.totalPEs
	if t.commBytes == nil || src < 0 || dst < 0 || src >= n || dst >= n {
		return
	}
	i := src*n + dst
	atomic.AddInt64(&t.commBytes[i], int64(bytes))
	atomic.AddInt64(&t.commMsgs[i], 1)
}

// Snapshot returns all events ordered by time.
func (t *Tracer) Snapshot() []Event {
	var out []Event
	collect := func(s *shard) {
		s.mu.Lock()
		if s.full {
			// ring wrapped: oldest events start at the overwrite cursor
			out = append(out, s.ev[s.next:]...)
			out = append(out, s.ev[:s.next]...)
		} else {
			out = append(out, s.ev...)
		}
		s.mu.Unlock()
	}
	for i := range t.shard {
		collect(&t.shard[i])
	}
	collect(&t.extra)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Report is one node's complete trace, shippable to node 0 for job-wide
// aggregation (core gathers these over the exit protocol).
type Report struct {
	Node          int
	BasePE        int // first global PE hosted by the node
	NumPEs        int // local PE count
	TotalPEs      int // job-wide PE count
	StartUnixNano int64
	Wall          time.Duration
	Dropped       uint64
	DroppedPE     []uint64 // per local PE ring-buffer losses
	Events        []Event
	// CommBytes/CommMsgs are TotalPEs×TotalPEs row-major src×dst matrices;
	// only rows for this node's PEs are populated (each node accounts its
	// own sends). Nil when SetTopology was never called.
	CommBytes []int64
	CommMsgs  []int64
}

// Report snapshots this tracer as a node report.
func (t *Tracer) Report(node int) Report {
	r := Report{
		Node:          node,
		BasePE:        t.basePE,
		NumPEs:        len(t.shard),
		TotalPEs:      t.totalPEs,
		StartUnixNano: t.start.UnixNano(),
		Wall:          t.Since(),
		Dropped:       t.Dropped(),
		DroppedPE:     make([]uint64, len(t.shard)),
		Events:        t.Snapshot(),
	}
	for i := range t.shard {
		r.DroppedPE[i] = t.shard[i].dropped.Load()
	}
	if r.TotalPEs == 0 {
		r.TotalPEs = len(t.shard)
	}
	if t.commBytes != nil {
		r.CommBytes = atomicCopy(t.commBytes)
		r.CommMsgs = atomicCopy(t.commMsgs)
	}
	return r
}

// WindowReport is Report restricted to the last `window` of activity: only
// events whose span intersects [now-window, now] are kept. window <= 0
// keeps everything. This is the live on-demand export behind
// /introspect/trace — a running job's recent timeline without waiting for
// the exit-time gather.
func (t *Tracer) WindowReport(node int, window time.Duration) Report {
	r := t.Report(node)
	if window <= 0 || window >= r.Wall {
		return r
	}
	cut := r.Wall - window
	kept := make([]Event, 0, len(r.Events))
	for _, e := range r.Events {
		if e.At+e.Dur >= cut {
			kept = append(kept, e)
		}
	}
	r.Events = kept
	return r
}

// CommRows returns a copy of n consecutive source rows of the wire-byte
// communication matrix starting at global PE base (n × TotalPEs, row-major).
// Nil until SetTopology. The introspection sampler ships a node's own rows
// in its NodeSnapshot so node 0 can assemble the live PE×PE matrix.
func (t *Tracer) CommRows(base, n int) []int64 {
	tp := t.totalPEs
	if t.commBytes == nil || base < 0 || n <= 0 || (base+n)*tp > len(t.commBytes) {
		return nil
	}
	return atomicCopy(t.commBytes[base*tp : (base+n)*tp])
}

func atomicCopy(src []int64) []int64 {
	out := make([]int64, len(src))
	for i := range src {
		out[i] = atomic.LoadInt64(&src[i])
	}
	return out
}

// MethodStat aggregates one entry method's executions.
type MethodStat struct {
	Chare  string
	Method string
	Count  int
	Total  time.Duration
	Max    time.Duration
}

// Summary aggregates a single tracer's events (node-local view; use
// Aggregate for job-wide summaries across gathered reports).
type Summary struct {
	Wall    time.Duration
	PEBusy  []time.Duration // per-PE entry-method time
	PEIdle  []time.Duration // per-PE measured idle time
	Sends   int
	Recvs   int
	Bytes   int64
	Methods []MethodStat // sorted by total time, descending
	NumEMs  int
	Dropped uint64
}

// Summarize computes aggregate statistics from the recorded events.
func (t *Tracer) Summarize() Summary {
	evs := t.Snapshot()
	s := Summary{
		Wall:    t.Since(),
		PEBusy:  make([]time.Duration, len(t.shard)),
		PEIdle:  make([]time.Duration, len(t.shard)),
		Dropped: t.Dropped(),
	}
	byMethod := map[string]*MethodStat{}
	for _, e := range evs {
		switch e.Kind {
		case EvEM:
			s.NumEMs++
			if e.PE >= 0 && e.PE < len(s.PEBusy) {
				s.PEBusy[e.PE] += e.Dur
			}
			key := e.Chare + "." + e.Method
			m := byMethod[key]
			if m == nil {
				m = &MethodStat{Chare: e.Chare, Method: e.Method}
				byMethod[key] = m
			}
			m.Count++
			m.Total += e.Dur
			if e.Dur > m.Max {
				m.Max = e.Dur
			}
		case EvIdle:
			if e.PE >= 0 && e.PE < len(s.PEIdle) {
				s.PEIdle[e.PE] += e.Dur
			}
		case EvSend:
			s.Sends++
			s.Bytes += int64(e.Bytes)
		case EvRecv:
			s.Recvs++
		}
	}
	for _, m := range byMethod {
		s.Methods = append(s.Methods, *m)
	}
	sort.Slice(s.Methods, func(i, j int) bool { return s.Methods[i].Total > s.Methods[j].Total })
	return s
}

// Utilization returns each PE's busy fraction of the wall time.
func (s Summary) Utilization() []float64 {
	out := make([]float64, len(s.PEBusy))
	if s.Wall <= 0 {
		return out
	}
	for i, b := range s.PEBusy {
		out[i] = float64(b) / float64(s.Wall)
	}
	return out
}

// WriteJSON dumps the raw events as JSON (one array), Projections-log style.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Snapshot())
}

// Fprint writes a human-readable summary table.
func (s Summary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "wall %.3fs, %d entry methods, %d sends (%d bytes on the wire)",
		s.Wall.Seconds(), s.NumEMs, s.Sends, s.Bytes)
	if s.Dropped > 0 {
		fmt.Fprintf(w, ", %d events dropped", s.Dropped)
	}
	fmt.Fprintln(w)
	util := s.Utilization()
	for pe, u := range util {
		fmt.Fprintf(w, "  PE %-3d busy %5.1f%% (%8.3fms)\n", pe, u*100, s.PEBusy[pe].Seconds()*1000)
	}
	fmt.Fprintf(w, "  %-32s %8s %12s %12s\n", "entry method", "count", "total", "max")
	for _, m := range s.Methods {
		fmt.Fprintf(w, "  %-32s %8d %10.3fms %10.3fms\n",
			m.Chare+"."+m.Method, m.Count, m.Total.Seconds()*1000, m.Max.Seconds()*1000)
	}
}

// ---- job-wide aggregation across gathered node reports ----

// PEStat is one global PE's aggregate activity.
type PEStat struct {
	Busy    time.Duration
	Idle    time.Duration
	EMs     int
	Sends   int
	Recvs   int
	Dropped uint64 // trace events lost by this PE's ring buffer
}

// GlobalSummary aggregates the reports of every node of a job.
type GlobalSummary struct {
	TotalPEs int
	Wall     time.Duration // max over nodes
	PE       []PEStat      // indexed by global PE
	Methods  []MethodStat
	Dropped  uint64
	// CommBytes/CommMsgs are the merged TotalPEs×TotalPEs src×dst matrices
	// (nil when no report carried one).
	CommBytes []int64
	CommMsgs  []int64
}

// Aggregate merges node reports into a job-wide summary.
func Aggregate(reports []Report) GlobalSummary {
	g := GlobalSummary{}
	for _, r := range reports {
		if n := r.BasePE + r.NumPEs; n > g.TotalPEs {
			g.TotalPEs = n
		}
		if r.TotalPEs > g.TotalPEs {
			g.TotalPEs = r.TotalPEs
		}
		if r.Wall > g.Wall {
			g.Wall = r.Wall
		}
		g.Dropped += r.Dropped
	}
	g.PE = make([]PEStat, g.TotalPEs)
	byMethod := map[string]*MethodStat{}
	for _, r := range reports {
		for i, d := range r.DroppedPE {
			if gpe := r.BasePE + i; gpe >= 0 && gpe < g.TotalPEs {
				g.PE[gpe].Dropped += d
			}
		}
		for _, e := range r.Events {
			gpe := e.PE
			if gpe >= 0 && gpe < r.NumPEs {
				gpe += r.BasePE
			} else {
				gpe = -1
			}
			switch e.Kind {
			case EvEM:
				if gpe >= 0 {
					g.PE[gpe].Busy += e.Dur
					g.PE[gpe].EMs++
				}
				key := e.Chare + "." + e.Method
				m := byMethod[key]
				if m == nil {
					m = &MethodStat{Chare: e.Chare, Method: e.Method}
					byMethod[key] = m
				}
				m.Count++
				m.Total += e.Dur
				if e.Dur > m.Max {
					m.Max = e.Dur
				}
			case EvIdle:
				if gpe >= 0 {
					g.PE[gpe].Idle += e.Dur
				}
			case EvSend:
				if gpe >= 0 {
					g.PE[gpe].Sends++
				}
			case EvRecv:
				if gpe >= 0 {
					g.PE[gpe].Recvs++
				}
			}
		}
		if r.CommBytes != nil && len(r.CommBytes) == g.TotalPEs*g.TotalPEs {
			if g.CommBytes == nil {
				g.CommBytes = make([]int64, g.TotalPEs*g.TotalPEs)
				g.CommMsgs = make([]int64, g.TotalPEs*g.TotalPEs)
			}
			for i, v := range r.CommBytes {
				g.CommBytes[i] += v
			}
			for i, v := range r.CommMsgs {
				g.CommMsgs[i] += v
			}
		}
	}
	for _, m := range byMethod {
		g.Methods = append(g.Methods, *m)
	}
	sort.Slice(g.Methods, func(i, j int) bool { return g.Methods[i].Total > g.Methods[j].Total })
	return g
}

// Utilization returns each global PE's busy fraction of the wall time.
func (g GlobalSummary) Utilization() []float64 {
	out := make([]float64, len(g.PE))
	if g.Wall <= 0 {
		return out
	}
	for i := range g.PE {
		out[i] = float64(g.PE[i].Busy) / float64(g.Wall)
	}
	return out
}

// Fprint writes the job-wide utilization table, per-method grain sizes, and
// the PE×PE communication matrix.
func (g GlobalSummary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "job: %d PEs, wall %.3fs", g.TotalPEs, g.Wall.Seconds())
	if g.Dropped > 0 {
		fmt.Fprintf(w, " (%d events dropped by ring buffers)", g.Dropped)
	}
	fmt.Fprintln(w)
	util := g.Utilization()
	for pe, st := range g.PE {
		fmt.Fprintf(w, "  PE %-3d busy %5.1f%% idle %5.1f%%  ems %-7d sends %-7d recvs %d",
			pe, util[pe]*100, idleFrac(st.Idle, g.Wall)*100, st.EMs, st.Sends, st.Recvs)
		if st.Dropped > 0 {
			fmt.Fprintf(w, "  dropped %d", st.Dropped)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-32s %8s %12s %12s %12s\n", "entry method", "count", "total", "mean", "max")
	for _, m := range g.Methods {
		mean := time.Duration(0)
		if m.Count > 0 {
			mean = m.Total / time.Duration(m.Count)
		}
		fmt.Fprintf(w, "  %-32s %8d %10.3fms %10.4fms %10.3fms\n",
			m.Chare+"."+m.Method, m.Count, m.Total.Seconds()*1000, mean.Seconds()*1000, m.Max.Seconds()*1000)
	}
	g.fprintMatrix(w)
}

func idleFrac(idle, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(idle) / float64(wall)
}

// fprintMatrix prints the PE×PE wire-byte matrix (dense up to 16 PEs, top
// pairs beyond that).
func (g GlobalSummary) fprintMatrix(w io.Writer) {
	if g.CommBytes == nil {
		return
	}
	n := g.TotalPEs
	fmt.Fprintf(w, "  PE×PE wire bytes (row src → col dst):\n")
	if n <= 16 {
		fmt.Fprintf(w, "  %6s", "")
		for j := 0; j < n; j++ {
			fmt.Fprintf(w, " %8d", j)
		}
		fmt.Fprintln(w)
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "  %6d", i)
			for j := 0; j < n; j++ {
				fmt.Fprintf(w, " %8d", g.CommBytes[i*n+j])
			}
			fmt.Fprintln(w)
		}
		return
	}
	type pair struct {
		src, dst int
		bytes    int64
	}
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if b := g.CommBytes[i*n+j]; b > 0 {
				pairs = append(pairs, pair{i, j, b})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].bytes > pairs[j].bytes })
	if len(pairs) > 10 {
		pairs = pairs[:10]
	}
	for _, p := range pairs {
		fmt.Fprintf(w, "    PE %d → PE %d: %d bytes (%d msgs)\n",
			p.src, p.dst, p.bytes, g.CommMsgs[p.src*n+p.dst])
	}
}
